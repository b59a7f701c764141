// Package verify provides the correctness harness around Theorem 1:
// precondition checks (assumption (ii) — enough queues for every
// equal-label group of competing messages), random generation of
// deadlock-free programs (correct by construction), and mutation-based
// generation of deadlocked programs.
package verify

import (
	"fmt"
	"math/rand"
	"slices"

	"systolic/internal/crossoff"
	"systolic/internal/label"
	"systolic/internal/model"
	"systolic/internal/topology"
)

// PreconditionReport lists per-link requirements for Theorem 1's
// assumption (ii) under a given labeling.
type PreconditionReport struct {
	// MaxGroup is the largest number of competing messages sharing a
	// label on any single link — the minimum queues-per-link for the
	// dynamic compatible policy.
	MaxGroup int
	// MaxCompeting is the largest number of competing messages on any
	// link — the minimum queues-per-link for the static policy.
	MaxCompeting int
	// Violations describes links whose same-label group exceeds the
	// supplied queue count (empty when queuesPerLink ≥ MaxGroup).
	Violations []string
}

// CheckPreconditions evaluates assumption (ii) of Theorem 1 for a
// program, a topology, a dense labeling, and a queue count.
func CheckPreconditions(p *model.Program, t topology.Topology, dense []int, queuesPerLink int) (PreconditionReport, error) {
	routes, err := topology.Routes(p, t)
	if err != nil {
		return PreconditionReport{}, err
	}
	return CheckPreconditionsRoutes(routes, dense, queuesPerLink), nil
}

// CheckPreconditionsRoutes is CheckPreconditions over precomputed
// routes, for pipelines (core.Analyze) that have already routed the
// program and should not pay for routing twice. Links and labels are
// visited in ascending order so Violations is deterministic: the report
// flows into core.Analysis and from there into wire responses, which
// must be byte-identical run to run.
//
// The labels crossing each link are grouped count-then-fill into one
// flat array (link ids index it, as they index Topology.Links), each
// link's segment is sorted in place, and equal-label groups are its
// runs: two allocations for the whole report, not a map and a key
// slice per link.
func CheckPreconditionsRoutes(routes [][]topology.Hop, dense []int, queuesPerLink int) PreconditionReport {
	var rep PreconditionReport
	numLinks := 0
	for _, route := range routes {
		for _, h := range route {
			if int(h.Link) >= numLinks {
				numLinks = int(h.Link) + 1
			}
		}
	}
	// Count, prefix-sum, fill: off[l] starts as the beginning of link
	// l's segment of labs and the fill advances it to the segment's
	// end, so afterwards segment l is labs[off[l-1]:off[l]].
	off := make([]int, numLinks+1)
	for _, route := range routes {
		for _, h := range route {
			off[h.Link+1]++
		}
	}
	for l := 0; l < numLinks; l++ {
		off[l+1] += off[l]
	}
	labs := make([]int, off[numLinks])
	for id, route := range routes {
		for _, h := range route {
			labs[off[h.Link]] = dense[id]
			off[h.Link]++
		}
	}
	start := 0
	for link := 0; link < numLinks; link++ {
		seg := labs[start:off[link]]
		start = off[link]
		if len(seg) > rep.MaxCompeting {
			rep.MaxCompeting = len(seg)
		}
		slices.Sort(seg)
		for i := 0; i < len(seg); {
			j := i + 1
			for j < len(seg) && seg[j] == seg[i] {
				j++
			}
			n := j - i
			if n > rep.MaxGroup {
				rep.MaxGroup = n
			}
			if n > queuesPerLink {
				rep.Violations = append(rep.Violations, fmt.Sprintf(
					"link %d: %d competing messages share label %d but only %d queues",
					link, n, seg[i], queuesPerLink))
			}
			i = j
		}
	}
	return rep
}

// RandomOptions shapes random program generation.
type RandomOptions struct {
	// Cells is the number of cells (≥ 2).
	Cells int
	// Messages is the number of messages to declare.
	Messages int
	// MaxWords bounds each message's word count (≥ 1).
	MaxWords int
	// Chain, when true, restricts senders and receivers to adjacent
	// cell indices (single-hop on a linear array); otherwise any
	// ordered pair is allowed (multi-hop on a linear array).
	Chain bool
}

// RandomDeadlockFree generates a random program that is deadlock-free
// by construction: it synthesizes a random word-transfer history and
// appends each transfer's W to the sender program and R to the
// receiver program in history order. The crossing-off procedure can
// cross pairs in exactly that order, so the strict classifier must
// accept the result — which makes the generator a test oracle.
func RandomDeadlockFree(rng *rand.Rand, opts RandomOptions) (*model.Program, error) {
	if opts.Cells < 2 {
		return nil, fmt.Errorf("verify: need ≥ 2 cells")
	}
	if opts.Messages < 1 {
		return nil, fmt.Errorf("verify: need ≥ 1 message")
	}
	if opts.MaxWords < 1 {
		opts.MaxWords = 1
	}
	b := model.NewBuilder()
	cells := b.AddCells("C", opts.Cells)

	type msgDecl struct {
		id       model.MessageID
		sender   model.CellID
		receiver model.CellID
		words    int
		sent     int
	}
	msgs := make([]msgDecl, opts.Messages)
	for i := range msgs {
		var s, r int
		if opts.Chain {
			s = rng.Intn(opts.Cells - 1)
			r = s + 1
			if rng.Intn(2) == 0 {
				s, r = r, s
			}
		} else {
			s = rng.Intn(opts.Cells)
			r = rng.Intn(opts.Cells - 1)
			if r >= s {
				r++
			}
		}
		words := 1 + rng.Intn(opts.MaxWords)
		id := b.DeclareMessage(fmt.Sprintf("M%d", i+1), cells[s], cells[r], words)
		msgs[i] = msgDecl{id: id, sender: cells[s], receiver: cells[r], words: words}
	}

	// Random transfer history: repeatedly pick a message with words
	// left and emit its next word's W and R.
	var live []int
	for i := range msgs {
		live = append(live, i)
	}
	for len(live) > 0 {
		k := rng.Intn(len(live))
		i := live[k]
		b.Write(msgs[i].sender, msgs[i].id)
		b.Read(msgs[i].receiver, msgs[i].id)
		msgs[i].sent++
		if msgs[i].sent == msgs[i].words {
			live = append(live[:k], live[k+1:]...)
		}
	}
	return b.Build()
}

// Rebuild constructs a new validated program with the same cells and
// messages as p but the given per-cell op sequences. Generators use it
// to derive program variants (op reorderings).
func Rebuild(p *model.Program, code [][]model.Op) (*model.Program, error) {
	b := model.NewBuilder()
	for _, c := range p.Cells() {
		if c.Host {
			b.AddHost(c.Name)
		} else {
			b.AddCell(c.Name)
		}
	}
	for _, m := range p.Messages() {
		b.DeclareMessage(m.Name, m.Sender, m.Receiver, m.Words)
	}
	for c, ops := range code {
		for _, op := range ops {
			if op.Kind == model.Write {
				b.Write(model.CellID(c), op.Msg)
			} else {
				b.Read(model.CellID(c), op.Msg)
			}
		}
	}
	return b.Build()
}

// SwapAdjacent returns a copy of p with ops i and i+1 of cell c
// exchanged (a validity-preserving mutation: per-message op counts and
// cell placement are untouched).
func SwapAdjacent(p *model.Program, c model.CellID, i int) (*model.Program, error) {
	code := make([][]model.Op, p.NumCells())
	for cc := 0; cc < p.NumCells(); cc++ {
		code[cc] = append([]model.Op(nil), p.Code(model.CellID(cc))...)
	}
	if i < 0 || i+1 >= len(code[c]) {
		return nil, fmt.Errorf("verify: swap index %d out of range for cell %d", i, c)
	}
	code[c][i], code[c][i+1] = code[c][i+1], code[c][i]
	return Rebuild(p, code)
}

// MutateToDeadlock swaps random adjacent operations until the strict
// classifier rejects the program (or attempts run out). It returns the
// last mutant and whether it is deadlocked — the negative-case
// generator for classifier/simulator agreement tests.
func MutateToDeadlock(rng *rand.Rand, p *model.Program, attempts int) (*model.Program, bool) {
	cur := p
	for a := 0; a < attempts; a++ {
		c := model.CellID(rng.Intn(cur.NumCells()))
		n := len(cur.Code(c))
		if n < 2 {
			continue
		}
		q, err := SwapAdjacent(cur, c, rng.Intn(n-1))
		if err != nil {
			continue
		}
		cur = q
		if !crossoff.Classify(cur, crossoff.Options{}) {
			return cur, true
		}
	}
	return cur, false
}

// Fix describes a repair suggestion: exchanging the operations at
// Index and Index+1 of Cell's program makes the program deadlock-free
// under the strict procedure.
type Fix struct {
	Cell  model.CellID
	Index int
}

// SuggestFixes searches for single adjacent-swap repairs of a
// deadlocked program (§9 makes deadlock-freedom "the programmer's or
// compiler's responsibility" — this is the compiler-assistant half).
// It returns up to limit fixes; an empty slice means no single swap
// suffices. The search is exhaustive over all adjacent pairs.
func SuggestFixes(p *model.Program, limit int) []Fix {
	if limit <= 0 {
		limit = 8
	}
	var fixes []Fix
	for c := 0; c < p.NumCells(); c++ {
		cell := model.CellID(c)
		code := p.Code(cell)
		for i := 0; i+1 < len(code); i++ {
			if code[i] == code[i+1] {
				continue // swapping identical ops changes nothing
			}
			q, err := SwapAdjacent(p, cell, i)
			if err != nil {
				continue
			}
			if crossoff.Classify(q, crossoff.Options{}) {
				fixes = append(fixes, Fix{Cell: cell, Index: i})
				if len(fixes) >= limit {
					return fixes
				}
			}
		}
	}
	return fixes
}

// DescribeFix renders a fix using program names.
func DescribeFix(p *model.Program, f Fix) string {
	code := p.Code(f.Cell)
	return fmt.Sprintf("swap %s and %s at %s (ops %d,%d)",
		p.OpString(code[f.Index]), p.OpString(code[f.Index+1]),
		p.Cell(f.Cell).Name, f.Index, f.Index+1)
}

// Labeled bundles a labeling result with the minimum queue requirement
// it implies; a convenience for property tests.
type Labeled struct {
	Labeling label.Labeling
	Report   PreconditionReport
}

// LabelAndCheck labels a program with the §6 scheme, verifies
// consistency, and computes the queue requirements over a topology.
func LabelAndCheck(p *model.Program, t topology.Topology) (Labeled, error) {
	lab, err := label.Assign(p, label.Options{})
	if err != nil {
		return Labeled{}, err
	}
	if err := label.Check(p, lab.ByMessage); err != nil {
		return Labeled{}, fmt.Errorf("verify: §6 labeling inconsistent: %w", err)
	}
	rep, err := CheckPreconditions(p, t, lab.Dense, 1<<30)
	if err != nil {
		return Labeled{}, err
	}
	return Labeled{Labeling: lab, Report: rep}, nil
}
