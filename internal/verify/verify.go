// Package verify provides the correctness harness around Theorem 1:
// precondition checks (assumption (ii) — enough queues for every
// equal-label group of competing messages), the degraded-link budget
// checks, and single-swap repair suggestions for deadlocked programs.
package verify

import (
	"fmt"
	"slices"
	"sync"

	"systolic/internal/crossoff"
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
// runs: not a map and a key slice per link. Both arrays come from one
// process-wide pool, so the report allocates only its Violations.
func CheckPreconditionsRoutes(routes [][]topology.Hop, dense []int, queuesPerLink int) PreconditionReport {
	g := groupings.Get().(*grouping)
	rep := g.check(routes, dense, queuesPerLink)
	if cap(g.off)+cap(g.labs) <= maxPooledEntries {
		groupings.Put(g)
	}
	return rep
}

// grouping is the scratch of one precondition report: off indexes labs
// by link.
type grouping struct{ off, labs []int }

var groupings = sync.Pool{New: func() any { return new(grouping) }}

// maxPooledEntries bounds the tables a grouping keeps when it goes back
// to the pool (8 bytes an entry, 4 MB in all): a larger one is left to
// the collector, since its arrays never shrink and it may serve any
// report next. The largest grouping any benchmark workload grows, on
// run-busy's 65 280 hops, keeps 67 265 entries, so no benchmark report
// is ever dropped.
const maxPooledEntries = 1 << 19

// resize returns buf with length n and every entry zero, reusing its
// array when it is large enough.
func resize(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// check is CheckPreconditionsRoutes on g's arrays.
func (g *grouping) check(routes [][]topology.Hop, dense []int, queuesPerLink int) PreconditionReport {
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
	g.off = resize(g.off, numLinks+1)
	off := g.off
	for _, route := range routes {
		for _, h := range route {
			off[h.Link+1]++
		}
	}
	for l := 0; l < numLinks; l++ {
		off[l+1] += off[l]
	}
	g.labs = resize(g.labs, off[numLinks])
	labs := g.labs
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

// swapAdjacent returns a copy of p with ops i and i+1 of cell c
// exchanged (a validity-preserving mutation: per-message op counts and
// cell placement are untouched).
func swapAdjacent(p *model.Program, c model.CellID, i int) (*model.Program, error) {
	if i < 0 || i+1 >= len(p.Code(c)) {
		return nil, fmt.Errorf("verify: swap index %d out of range for cell %d", i, c)
	}
	swapped := slices.Clone(p.Code(c))
	swapped[i], swapped[i+1] = swapped[i+1], swapped[i]
	return model.Rebuild(p, nil, func(cc model.CellID) []model.Op {
		if cc == c {
			return swapped
		}
		return p.Code(cc)
	})
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
			q, err := swapAdjacent(p, cell, i)
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
