// Package gen manufactures random — but always well-formed — systolic
// programs at scale. Where internal/workload transcribes the paper's
// six figures by hand, gen produces thousands of program/topology
// scenarios from a seed, with knobs for cell count, message count,
// word counts, cyclicity, and interleaving depth, over linear, ring,
// and 2-D mesh topologies.
//
// Construction is history-based, as in §3: a random word-transfer
// history is synthesized and each transfer's W is appended to the
// sender's program and its R to the receiver's, in history order. The
// crossing-off procedure can cross pairs in exactly that order, so the
// un-mutated output is deadlock-free by construction. The Interleave
// knob bounds how many messages the history keeps in flight at once:
// depth 1 yields sequential, one-message-at-a-time programs; deeper
// interleaving produces the related-message classes of §6 (Fig 8/9's
// R(A) R(B) R(A)… patterns) whose equal labels drive up Theorem 1's
// queue requirement.
//
// Mutations then apply validity-preserving adjacent-op swaps, which
// may or may not introduce deadlock — the differential oracle
// (internal/diff) checks the analyzer's verdict either way.
//
// Everything is derived from the seed through one rand stream, so a
// scenario is reproducible from (seed, Options) alone.
package gen

import (
	"fmt"
	"math/rand"

	"systolic/internal/model"
	"systolic/internal/topology"
)

// TopoKind selects the topology family of a scenario.
type TopoKind int

const (
	// TopoAuto picks a family per seed.
	TopoAuto TopoKind = iota
	// TopoLinear is a 1-D array, the paper's default setting.
	TopoLinear
	// TopoRing is a ring with shorter-arc routing.
	TopoRing
	// TopoMesh is a 2-D mesh with XY routing.
	TopoMesh
)

// String names the kind.
func (k TopoKind) String() string {
	switch k {
	case TopoAuto:
		return "auto"
	case TopoLinear:
		return "linear"
	case TopoRing:
		return "ring"
	case TopoMesh:
		return "mesh"
	}
	return fmt.Sprintf("topo(%d)", int(k))
}

// Options are the generation knobs. The zero value asks Generate to
// pick every unset knob from the seed, which is the usual fuzzing
// configuration; fixed values pin an axis.
type Options struct {
	// Cells is the number of cells (≥ 2). 0 picks 3–8 per seed. For a
	// mesh the value is rounded up to the next rows×cols grid.
	Cells int
	// Messages is the number of declared messages (≥ 1). 0 picks
	// between 2 and 2·Cells per seed.
	Messages int
	// MaxWords bounds each message's word count (≥ 1). 0 picks 1–6
	// per seed.
	MaxWords int
	// Interleave bounds how many messages the transfer history keeps
	// in flight at once (≥ 1). 1 generates sequential programs; larger
	// values generate the interleaved op patterns that force related
	// messages to share labels. 0 picks 1–4 per seed.
	Interleave int
	// Cyclic allows messages in both directions (receiver index below
	// sender), producing cyclic data-flow like the paper's Fig 6.
	// Acyclic scenarios only send from lower to higher cell ids.
	Cyclic bool
	// Mutations is the number of random validity-preserving
	// adjacent-op swaps applied after construction. 0 keeps the
	// program deadlock-free by construction; a few swaps produce a mix
	// of deadlock-free and deadlocked programs.
	Mutations int
	// Topology selects the family; TopoAuto picks per seed.
	Topology TopoKind
}

// Scenario is one generated program/topology pair, tagged with the
// seed and resolved knobs that reproduce it.
type Scenario struct {
	Seed     int64
	Opts     Options // fully resolved: every knob concrete
	Program  *model.Program
	Topology topology.Topology
	Name     string
}

// Generate builds the scenario for a seed. The same (seed, opts)
// always yields the identical scenario. Errors are reserved for
// impossible knob combinations (e.g. Cells < 2).
func Generate(seed int64, opts Options) (*Scenario, error) {
	rng := rand.New(rand.NewSource(seed))

	if opts.Topology == TopoAuto {
		opts.Topology = []TopoKind{TopoLinear, TopoRing, TopoMesh}[rng.Intn(3)]
	}
	if opts.Cells == 0 {
		opts.Cells = 3 + rng.Intn(6)
	}
	if opts.Cells < 2 {
		return nil, fmt.Errorf("gen: Cells %d < 2", opts.Cells)
	}

	var topo topology.Topology
	switch opts.Topology {
	case TopoLinear:
		topo = topology.Linear(opts.Cells)
	case TopoRing:
		if opts.Cells < 3 {
			opts.Cells = 3 // a 2-ring would duplicate its single link
		}
		topo = topology.Ring(opts.Cells)
	case TopoMesh:
		rows := 2
		if opts.Cells > 6 && rng.Intn(2) == 0 {
			rows = 3
		}
		cols := (opts.Cells + rows - 1) / rows
		if cols < 2 {
			cols = 2
		}
		opts.Cells = rows * cols
		topo = topology.Mesh2D(rows, cols)
	default:
		return nil, fmt.Errorf("gen: unknown topology kind %d", int(opts.Topology))
	}

	if opts.Messages == 0 {
		opts.Messages = 2 + rng.Intn(2*opts.Cells-1)
	}
	if opts.Messages < 1 {
		return nil, fmt.Errorf("gen: Messages %d < 1", opts.Messages)
	}
	if opts.MaxWords == 0 {
		opts.MaxWords = 1 + rng.Intn(6)
	}
	if opts.MaxWords < 1 {
		return nil, fmt.Errorf("gen: MaxWords %d < 1", opts.MaxWords)
	}
	if opts.Interleave == 0 {
		opts.Interleave = 1 + rng.Intn(4)
	}
	if opts.Interleave < 1 {
		return nil, fmt.Errorf("gen: Interleave %d < 1", opts.Interleave)
	}
	if opts.Mutations < 0 {
		return nil, fmt.Errorf("gen: Mutations %d < 0", opts.Mutations)
	}

	// Declare messages: random endpoint pairs and word counts.
	type decl struct {
		sender, receiver int
		words            int
		left             int
	}
	decls := make([]decl, opts.Messages)
	for i := range decls {
		var s, r int
		if opts.Cyclic {
			s = rng.Intn(opts.Cells)
			r = rng.Intn(opts.Cells - 1)
			if r >= s {
				r++
			}
		} else {
			// Acyclic flow: lower id sends to strictly higher id.
			s = rng.Intn(opts.Cells - 1)
			r = s + 1 + rng.Intn(opts.Cells-s-1)
		}
		w := 1 + rng.Intn(opts.MaxWords)
		decls[i] = decl{sender: s, receiver: r, words: w, left: w}
	}

	// Synthesize the transfer history with a bounded in-flight window.
	// Admission order is a random permutation; at each step one active
	// message transfers its next word.
	perm := rng.Perm(opts.Messages)
	next := 0 // next admission index in perm
	var active []int
	code := make([][]model.Op, opts.Cells)
	for {
		for len(active) < opts.Interleave && next < len(perm) {
			active = append(active, perm[next])
			next++
		}
		if len(active) == 0 {
			break
		}
		k := rng.Intn(len(active))
		i := active[k]
		code[decls[i].sender] = append(code[decls[i].sender], model.Op{Kind: model.Write, Msg: model.MessageID(i)})
		code[decls[i].receiver] = append(code[decls[i].receiver], model.Op{Kind: model.Read, Msg: model.MessageID(i)})
		decls[i].left--
		if decls[i].left == 0 {
			active = append(active[:k], active[k+1:]...)
		}
	}

	// Mutations: random adjacent swaps that change the sequence.
	// Per-message op counts and cell placement are untouched, so the
	// program stays valid; deadlock-freedom may or may not survive.
	for m := 0; m < opts.Mutations; m++ {
		c := rng.Intn(opts.Cells)
		if len(code[c]) < 2 {
			continue
		}
		i := rng.Intn(len(code[c]) - 1)
		code[c][i], code[c][i+1] = code[c][i+1], code[c][i]
	}

	b := model.NewBuilder()
	cells := b.AddCells("C", opts.Cells)
	for i, d := range decls {
		b.DeclareMessage(fmt.Sprintf("M%d", i+1), cells[d.sender], cells[d.receiver], d.words)
	}
	for c, ops := range code {
		b.AppendOps(cells[c], ops)
	}
	p, err := b.Build()
	if err != nil {
		// Unreachable for the construction above; surfaced for tests.
		return nil, fmt.Errorf("gen: seed %d produced an invalid program: %w", seed, err)
	}
	return &Scenario{
		Seed:     seed,
		Opts:     opts,
		Program:  p,
		Topology: topo,
		Name:     fmt.Sprintf("gen-%d-%s", seed, topo.Name()),
	}, nil
}
