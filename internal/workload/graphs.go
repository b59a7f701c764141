package workload

// Second-generation workload families: operator graphs lowered onto
// systolic arrays, in the style of chiplet co-simulation decomposition
// — attention/MoE-style routing, iterative stencils, FFT butterflies,
// and pipelined sorting networks that scale to 10k+ cells. Every
// generator emits its program in a serial word-transfer history order
// (each W immediately followed by its matching R across the history),
// so the result is deadlock-free by construction under the strict
// crossing-off procedure — the same oracle trick internal/gen uses —
// while still exercising deep multi-hop routes, wide fan-in, and long
// pipelines at run time.

import (
	"fmt"

	"systolic/internal/machine"
	"systolic/internal/model"
	"systolic/internal/topology"
)

// AttentionOptions sizes the attention/MoE-style operator graph.
type AttentionOptions struct {
	// Tokens is the number of tokens routed through the graph (≥ 1).
	Tokens int
	// Experts is the number of expert cells (≥ 1).
	Experts int
}

// Attention generates an attention/MoE-style operator graph on a
// linear array: a router (cell 0) dispatches each token to one of E
// expert cells round-robin; each expert scales the token by its
// weight and ships the result to a combiner (cell E+1). Token t's
// route crosses every cell between router and its expert, and every
// expert-to-combiner route overlaps on the tail links, so the family
// stresses multi-hop contention and fan-in — the operator-graph shape
// the ROADMAP's scenario-diversity item calls for.
func Attention(opts AttentionOptions) (*Workload, error) {
	if opts.Tokens < 1 || opts.Experts < 1 {
		return nil, fmt.Errorf("workload: Attention needs Tokens ≥ 1 and Experts ≥ 1 (got %d, %d)", opts.Tokens, opts.Experts)
	}
	t, e := opts.Tokens, opts.Experts
	b := model.NewBuilder()
	router := b.AddHost("Router")
	experts := b.AddCells("X", e)
	combiner := b.AddCell("Comb")

	logic := &attnLogic{
		weight: make([]float64, e),
		value:  map[model.MessageID]float64{},
	}
	for i := range logic.weight {
		logic.weight[i] = float64(i%5 + 1)
	}
	expected := make(map[string][]machine.Word, t)

	// Serial history: token t is dispatched, transformed, and combined
	// before token t+1 is dispatched. Per-cell program order is the
	// projection of this history, so crossing-off can cross pairs in
	// exactly history order: deadlock-free by construction. At run
	// time the tokens still pipeline — the history only fixes each
	// cell's op order, not the global schedule.
	for i := 0; i < t; i++ {
		x := i % e
		tok := b.DeclareMessage(fmt.Sprintf("T%d", i+1), router, experts[x], 1)
		name := fmt.Sprintf("O%d", i+1)
		out := b.DeclareMessage(name, experts[x], combiner, 1)
		v := float64(i + 1)
		logic.value[tok] = v
		b.Write(router, tok)
		b.Read(experts[x], tok)
		b.Write(experts[x], out)
		b.Read(combiner, out)
		logic.out = append(logic.out, outDecl{msg: out, tok: tok, expert: x})
		expected[name] = []machine.Word{machine.Word(logic.weight[x] * v)}
	}
	p, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("workload: Attention(%d,%d): %w", t, e, err)
	}
	logic.finish()
	return &Workload{
		Name:            fmt.Sprintf("attention(tokens=%d,experts=%d)", t, e),
		Program:         p,
		Topology:        topology.Linear(e + 2),
		Logic:           logic,
		Expected:        expected,
		DefaultQueues:   2,
		DefaultCapacity: 2,
		Notes: "MoE-style operator graph: round-robin token routing " +
			"through expert cells into a combiner; serial-history " +
			"construction keeps it strictly deadlock-free",
	}, nil
}

// outDecl records one expert output's provenance.
type outDecl struct {
	msg    model.MessageID
	tok    model.MessageID
	expert int
}

// attnLogic scales each token by its expert's weight.
type attnLogic struct {
	weight []float64
	value  map[model.MessageID]float64 // token and output messages → word value
	out    []outDecl
}

// finish precomputes every output message's value: the expert output
// depends only on the token value and the expert weight, so it can be
// fixed at construction.
func (l *attnLogic) finish() {
	for _, o := range l.out {
		l.value[o.msg] = l.weight[o.expert] * l.value[o.tok]
	}
}

func (l *attnLogic) OnRead(model.CellID, model.MessageID, int, machine.Word) {}

func (l *attnLogic) Produce(_ model.CellID, msg model.MessageID, _ int) machine.Word {
	return machine.Word(l.value[msg])
}

// StencilOptions sizes the iterative mesh stencil.
type StencilOptions struct {
	// Rows and Cols shape the 2-D mesh (each ≥ 1, Rows·Cols ≥ 2).
	Rows, Cols int
	// Iters is the number of diffusion iterations (≥ 1).
	Iters int
}

// Stencil generates an iterative neighbor-exchange stencil on a 2-D
// mesh: each iteration, every horizontal pair and then every vertical
// pair exchanges residents and both members keep the average — a
// diffusion relaxation. Exchanges use the polite pair ordering (one
// member writes first, the other reads first), and pairs are emitted
// in a serial history, so the program is strictly deadlock-free while
// the mesh still saturates every link each iteration at run time.
func Stencil(opts StencilOptions) (*Workload, error) {
	r, c, it := opts.Rows, opts.Cols, opts.Iters
	if r < 1 || c < 1 || r*c < 2 {
		return nil, fmt.Errorf("workload: Stencil needs Rows·Cols ≥ 2 (got %d×%d)", r, c)
	}
	if it < 1 {
		return nil, fmt.Errorf("workload: Stencil needs Iters ≥ 1 (got %d)", it)
	}
	b := model.NewBuilder()
	cells := b.AddCells("S", r*c)
	at := func(i, j int) model.CellID { return cells[i*c+j] }

	logic := newExchangeLogic(r*c, exchangeAverage)
	for idx := range cells {
		logic.resident[cells[idx]] = float64((idx*13+5)%97 + 1)
	}

	declarePair := func(name string, a, bb model.CellID) {
		e := b.DeclareMessage(name+"e", a, bb, 1)
		f := b.DeclareMessage(name+"f", bb, a, 1)
		logic.kind[e] = 'e'
		logic.kind[f] = 'f'
		b.Write(a, e)
		b.Read(bb, e)
		b.Write(bb, f)
		b.Read(a, f)
	}
	for k := 0; k < it; k++ {
		for i := 0; i < r; i++ {
			for j := 0; j+1 < c; j++ {
				declarePair(fmt.Sprintf("H%d.%d.%d", k, i, j), at(i, j), at(i, j+1))
			}
		}
		for i := 0; i+1 < r; i++ {
			for j := 0; j < c; j++ {
				declarePair(fmt.Sprintf("V%d.%d.%d", k, i, j), at(i, j), at(i+1, j))
			}
		}
	}
	p, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("workload: Stencil(%d×%d,%d): %w", r, c, it, err)
	}
	return &Workload{
		Name:            fmt.Sprintf("stencil(%dx%d,iters=%d)", r, c, it),
		Program:         p,
		Topology:        topology.Mesh2D(r, c),
		Logic:           logic,
		DefaultQueues:   2,
		DefaultCapacity: 2,
		Notes: "iterative diffusion stencil; residents verified by " +
			"sequential replay, no host collection so it scales",
	}, nil
}

// FFTOptions sizes the butterfly network.
type FFTOptions struct {
	// LogN is the number of butterfly stages; the array has 2^LogN
	// cells. Must be ≥ 1.
	LogN int
}

// FFT generates an in-place butterfly network (the data-flow graph of
// an FFT; the arithmetic is the Walsh–Hadamard transform, i.e. all
// twiddle factors 1, keeping word semantics exactly verifiable in
// floats): logN stages, stage s exchanging between partners 2^s
// apart. Later stages cross long stretches of the linear array, so
// queue competition grows stage by stage — the deep-multi-hop shape
// the figure workloads never reach.
func FFT(opts FFTOptions) (*Workload, error) {
	if opts.LogN < 1 {
		return nil, fmt.Errorf("workload: FFT needs LogN ≥ 1 (got %d)", opts.LogN)
	}
	n := 1 << opts.LogN
	b := model.NewBuilder()
	cells := b.AddCells("B", n)

	logic := newExchangeLogic(n, exchangeButterfly)
	for idx := range cells {
		logic.resident[cells[idx]] = float64((idx*7+3)%(2*n) + 1)
	}

	for s := 0; s < opts.LogN; s++ {
		stride := 1 << s
		for i := 0; i < n; i++ {
			if i&stride != 0 {
				continue
			}
			a, bb := cells[i], cells[i+stride]
			x := b.DeclareMessage(fmt.Sprintf("X%d.%d", s, i), a, bb, 1)
			y := b.DeclareMessage(fmt.Sprintf("Y%d.%d", s, i), bb, a, 1)
			logic.kind[x] = 'e'
			logic.kind[y] = 'f'
			b.Write(a, x)
			b.Read(bb, x)
			b.Write(bb, y)
			b.Read(a, y)
		}
	}
	p, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("workload: FFT(logN=%d): %w", opts.LogN, err)
	}
	return &Workload{
		Name:            fmt.Sprintf("fft(logN=%d)", opts.LogN),
		Program:         p,
		Topology:        topology.Linear(n),
		Logic:           logic,
		DefaultQueues:   2,
		DefaultCapacity: 2,
		Notes: "butterfly exchange network (Walsh–Hadamard arithmetic); " +
			"stage-s partners sit 2^s cells apart, so routes deepen " +
			"stage by stage",
	}, nil
}

// PipelinedSortOptions sizes the collection-free sorting network.
type PipelinedSortOptions struct {
	// Width is the number of sorting cells (≥ 2).
	Width int
	// Rounds is the number of odd-even transposition rounds (≥ 1;
	// Width rounds fully sort). Fewer rounds bound the program size
	// for very wide arrays.
	Rounds int
}

// PipelinedSort generates an odd-even transposition sorting network
// without host collection: every message is single-hop between
// neighbors and per-cell state is a dense slice, so the generator
// scales to 10k+ cells — the scale-test workload. After Rounds
// rounds the residents equal Rounds rounds of odd-even transposition
// applied directly (a full sort when Rounds ≥ Width).
func PipelinedSort(opts PipelinedSortOptions) (*Workload, error) {
	w, rounds := opts.Width, opts.Rounds
	if w < 2 {
		return nil, fmt.Errorf("workload: PipelinedSort needs Width ≥ 2 (got %d)", w)
	}
	if rounds < 1 {
		return nil, fmt.Errorf("workload: PipelinedSort needs Rounds ≥ 1 (got %d)", rounds)
	}
	b := model.NewBuilder()
	cells := b.AddCells("P", w)

	logic := newExchangeLogic(w, exchangeSort)
	for idx := range cells {
		logic.resident[cells[idx]] = float64((idx*7+3)%(2*w) + 1)
	}

	for r := 0; r < rounds; r++ {
		for i := r % 2; i+1 < w; i += 2 {
			left, right := cells[i], cells[i+1]
			e := b.DeclareMessage(fmt.Sprintf("E%d.%d", r, i), left, right, 1)
			f := b.DeclareMessage(fmt.Sprintf("F%d.%d", r, i), right, left, 1)
			logic.kind[e] = 'e'
			logic.kind[f] = 'f'
			b.Write(left, e)
			b.Read(right, e)
			b.Write(right, f)
			b.Read(left, f)
		}
	}
	p, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("workload: PipelinedSort(%d,%d): %w", w, rounds, err)
	}
	return &Workload{
		Name:            fmt.Sprintf("pipesort(width=%d,rounds=%d)", w, rounds),
		Program:         p,
		Topology:        topology.Linear(w),
		Logic:           logic,
		DefaultQueues:   2,
		DefaultCapacity: 2,
		Notes: "collection-free odd-even transposition; dense per-cell " +
			"state and single-hop messages keep 10k-cell arrays cheap",
	}, nil
}

// Exchange combining rules for exchangeLogic.
const (
	// exchangeSort: left keeps min, right keeps max.
	exchangeSort = iota
	// exchangeAverage: both keep the average (diffusion).
	exchangeAverage
	// exchangeButterfly: initiator keeps a+b, partner keeps a-b.
	exchangeButterfly
)

// exchangeLogic is the shared CellLogic for pairwise-exchange
// families (stencil, FFT, pipelined sort): message kind 'e' carries
// the initiator's resident to the partner, kind 'f' carries the
// partner's pre-exchange resident back; both sides then apply the
// combining rule. Pair ordering is polite (initiator: W(e) … R(f);
// partner: R(e) W(f)), so the partner's Produce(f) must return the
// pre-exchange resident stashed in outbox. State is dense slices —
// no per-message maps beyond the kind table — so 10k-cell instances
// stay cheap.
type exchangeLogic struct {
	rule     int
	resident []float64
	outbox   []float64
	kind     map[model.MessageID]byte
}

func newExchangeLogic(cells, rule int) *exchangeLogic {
	return &exchangeLogic{
		rule:     rule,
		resident: make([]float64, cells),
		outbox:   make([]float64, cells),
		kind:     map[model.MessageID]byte{},
	}
}

func (l *exchangeLogic) combine(mine, theirs float64, initiator bool) float64 {
	switch l.rule {
	case exchangeAverage:
		return (mine + theirs) / 2
	case exchangeButterfly:
		if initiator {
			return mine + theirs // a' = a + b
		}
		return theirs - mine // b' = a - b
	default: // exchangeSort
		if initiator {
			if theirs < mine {
				return theirs // left keeps min
			}
			return mine
		}
		if theirs > mine {
			return theirs // right keeps max
		}
		return mine
	}
}

func (l *exchangeLogic) OnRead(cell model.CellID, msg model.MessageID, _ int, w machine.Word) {
	switch l.kind[msg] {
	case 'e': // partner receives the initiator's value
		l.outbox[cell] = l.resident[cell]
		l.resident[cell] = l.combine(l.resident[cell], float64(w), false)
	case 'f': // initiator receives the partner's pre-exchange value
		l.resident[cell] = l.combine(l.resident[cell], float64(w), true)
	}
}

func (l *exchangeLogic) Produce(cell model.CellID, msg model.MessageID, _ int) machine.Word {
	if l.kind[msg] == 'f' {
		// The partner already folded the exchange into resident; the
		// return value is its pre-exchange resident.
		return machine.Word(l.outbox[cell])
	}
	return machine.Word(l.resident[cell])
}

// Residents exposes the final per-cell values for verification by
// sequential replay.
func (l *exchangeLogic) Residents() []float64 {
	return append([]float64(nil), l.resident...)
}
