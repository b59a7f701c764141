package main

import (
	"fmt"

	"systolic"
	"systolic/internal/core"
	"systolic/internal/crossoff"
	"systolic/internal/label"
	"systolic/internal/machine"
	"systolic/internal/topology"
	"systolic/internal/verify"
)

// A scenario is one program a library workload analyzes and runs. The
// harness only ever calls the public functions of systolic and
// internal/*; everything here is input generation, timing and
// checking.
type scenario struct {
	name string
	// build makes the program. Workload logic keeps per-run registers,
	// so a semantic scenario builds afresh for every run that is
	// checked against Workload.Expected.
	build    func() (*systolic.Workload, error)
	semantic bool
	aopts    systolic.AnalyzeOptions
	eopts    systolic.ExecOptions
	// repeat is how many times one op executes the scenario.
	repeat int

	// Frozen at set-up.
	src  string            // DSL text (cold-pipeline parses it every op)
	prog *systolic.Program // the program the analysis below belongs to
	topo systolic.Topology
	a    *systolic.Analysis // analyzed and precompiled (run-* workloads)
}

// plainWorkload wraps a bare program as a synthetic-logic workload.
func plainWorkload(name string, p *systolic.Program, t systolic.Topology) (*systolic.Workload, error) {
	return &systolic.Workload{Name: name, Program: p, Topology: t}, nil
}

// chainProgram is a daisy chain over a linear array: cell i reads all
// of message i-1 before writing message i, so about two messages are
// ever live and nearly every cycle is empty for nearly every cell.
func chainProgram(cells, words int) (*systolic.Workload, error) {
	b := systolic.NewProgram()
	ids := b.AddCells("C", cells)
	msgs := make([]systolic.MessageID, cells-1)
	for i := range msgs {
		msgs[i] = b.DeclareMessage(fmt.Sprintf("M%d", i), ids[i], ids[i+1], words)
	}
	b.WriteN(ids[0], msgs[0], words)
	for i := 1; i < cells-1; i++ {
		b.ReadN(ids[i], msgs[i-1], words)
		b.WriteN(ids[i], msgs[i], words)
	}
	b.ReadN(ids[cells-1], msgs[cells-2], words)
	p, err := b.Build()
	if err != nil {
		return nil, err
	}
	return plainWorkload(fmt.Sprintf("chain-%dx%d", cells, words), p, systolic.LinearArray(cells))
}

// wideLinearProgram is the busy counterpart of chainProgram: every
// interior cell interleaves R(M[i-1]) with W(M[i]) word by word, so
// once the wavefront fills, nearly all cells issue every cycle.
func wideLinearProgram(cells, words int) (*systolic.Workload, error) {
	b := systolic.NewProgram()
	ids := b.AddCells("C", cells)
	msgs := make([]systolic.MessageID, cells-1)
	for i := range msgs {
		msgs[i] = b.DeclareMessage(fmt.Sprintf("M%d", i), ids[i], ids[i+1], words)
	}
	b.WriteN(ids[0], msgs[0], words)
	for i := 1; i < cells-1; i++ {
		for w := 0; w < words; w++ {
			b.Read(ids[i], msgs[i-1])
			b.Write(ids[i], msgs[i])
		}
	}
	b.ReadN(ids[cells-1], msgs[cells-2], words)
	p, err := b.Build()
	if err != nil {
		return nil, err
	}
	return plainWorkload(fmt.Sprintf("wide-linear-%dx%d", cells, words), p, systolic.LinearArray(cells))
}

// meshFlowProgram sends one message along every row and every column
// of a mesh, so the transport phase advances rows+cols multi-hop
// messages across rows*cols queue pools at once.
func meshFlowProgram(rows, cols, words int) (*systolic.Workload, error) {
	b := systolic.NewProgram()
	ids := make([]systolic.CellID, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			ids[r*cols+c] = b.AddCell(fmt.Sprintf("P%d_%d", r, c))
		}
	}
	for r := 0; r < rows; r++ {
		m := b.DeclareMessage(fmt.Sprintf("ROW%d", r), ids[r*cols], ids[r*cols+cols-1], words)
		b.WriteN(ids[r*cols], m, words)
		b.ReadN(ids[r*cols+cols-1], m, words)
	}
	for c := 0; c < cols; c++ {
		m := b.DeclareMessage(fmt.Sprintf("COL%d", c), ids[c], ids[(rows-1)*cols+c], words)
		b.WriteN(ids[c], m, words)
		b.ReadN(ids[(rows-1)*cols+c], m, words)
	}
	p, err := b.Build()
	if err != nil {
		return nil, err
	}
	return plainWorkload(fmt.Sprintf("mesh-flow-%dx%dx%d", rows, cols, words), p, systolic.Mesh(rows, cols))
}

// genWorkload wraps a seeded generated program. With Mutations 0 it is
// deadlock-free by construction, so no op on it is refused.
func genWorkload(seed int64, opts systolic.GenOptions) (*systolic.Workload, error) {
	sc, err := systolic.GenerateProgram(seed, opts)
	if err != nil {
		return nil, err
	}
	return plainWorkload(sc.Name, sc.Program, sc.Topology)
}

// freezeSource renders the scenario to DSL text and, for a semantic
// scenario, proves that parsing the text back gives the built
// program's ids, so the built workload's logic and expected outputs
// apply to a run of the parsed program.
func (sc *scenario) freezeSource(rec *recorder) error {
	w, err := sc.build()
	if err != nil {
		return fmt.Errorf("%s: build: %w", sc.name, err)
	}
	id := rec.begin(spFormat, -1, -1)
	sc.src = systolic.FormatDSL(w.Program, w.Topology)
	rec.end(id)
	p, t, err := systolic.ParseDSL(sc.src)
	if err != nil {
		return fmt.Errorf("%s: formatted DSL does not parse: %w", sc.name, err)
	}
	if machine.ScenarioKey(p, t, nil, nil) != machine.ScenarioKey(w.Program, w.Topology, nil, nil) {
		return fmt.Errorf("%s: DSL round trip changed the program", sc.name)
	}
	sc.prog, sc.topo = p, t
	return nil
}

// freezeAnalysis builds, analyzes and precompiles the scenario, for
// workloads that hold analyses warm.
func (sc *scenario) freezeAnalysis(rec *recorder) error {
	w, err := sc.build()
	if err != nil {
		return fmt.Errorf("%s: build: %w", sc.name, err)
	}
	sc.prog, sc.topo = w.Program, w.Topology
	a, err := analyze(sc.prog, sc.topo, sc.aopts, rec, -1, -1)
	if err != nil {
		return fmt.Errorf("%s: analyze: %w", sc.name, err)
	}
	if !a.DeadlockFree {
		return fmt.Errorf("%s: not deadlock-free", sc.name)
	}
	id := rec.begin(spCompile, -1, -1)
	err = systolic.Precompile(a)
	rec.end(id)
	if err != nil {
		return fmt.Errorf("%s: compile: %w", sc.name, err)
	}
	sc.a = a
	return nil
}

// analyze is systolic.Analyze on the untraced pass and
// analyzeDecomposed, with a span around each step, on the traced one.
func analyze(p *systolic.Program, t systolic.Topology, opts systolic.AnalyzeOptions, rec *recorder, parent, op int32) (*systolic.Analysis, error) {
	if rec == nil {
		return systolic.Analyze(p, t, opts)
	}
	return analyzeDecomposed(p, t, opts, rec, parent, op)
}

// analyzeDecomposed makes the public calls core.Analyze makes, in its
// order, and assembles the same Analysis from their results.
// TestDecomposedAnalysisMatchesAnalyze holds it to systolic.Analyze on
// every cold-pipeline scenario, so the traced pass cannot drift from
// what the untraced pass runs.
func analyzeDecomposed(p *systolic.Program, t systolic.Topology, opts systolic.AnalyzeOptions, rec *recorder, parent, op int32) (*systolic.Analysis, error) {
	id := rec.begin(spRoutes, parent, op)
	routes, err := topology.Routes(p, t)
	rec.end(id)
	if err != nil {
		return nil, err
	}
	for _, r := range routes {
		rec.add(cHops, int64(len(r)))
	}
	a := &core.Analysis{Program: p, Topology: t, Routes: routes}

	budget := opts.BudgetOverride
	if budget == nil && opts.Lookahead {
		budget = crossoff.BudgetFromRoutes(routes, opts.Capacity)
	}
	id = rec.begin(spCrossoff, parent, op)
	res := crossoff.Run(p, crossoff.Options{Lookahead: opts.Lookahead, Budget: budget, Picker: opts.Picker})
	a.Strict = res.DeadlockFree
	if opts.Lookahead {
		a.Strict = crossoff.Classify(p, crossoff.Options{Picker: opts.Picker})
		rec.add(cCrossOps, int64(p.TotalOps()))
	}
	rec.end(id)
	rec.add(cCrossOps, int64(p.TotalOps()))
	rec.add(cPairs, int64(len(res.Order)))
	a.DeadlockFree = res.DeadlockFree
	a.Blocked = res.Blocked
	if !a.DeadlockFree {
		return a, nil
	}

	id = rec.begin(spLabelAssign, parent, op)
	lab, err := label.Assign(p, label.Options{Lookahead: opts.Lookahead, Budget: budget, Picker: opts.Picker})
	rec.end(id)
	rec.add(cMessages, int64(p.NumMessages()))
	if err != nil {
		return nil, fmt.Errorf("labeling: %w", err)
	}
	id = rec.begin(spLabelCheck, parent, op)
	err = label.Check(p, lab.ByMessage)
	rec.end(id)
	if err != nil {
		return nil, fmt.Errorf("inconsistent labeling: %w", err)
	}
	a.Labeling = lab

	id = rec.begin(spVerify, parent, op)
	rep := verify.CheckPreconditionsRoutes(routes, lab.Dense, 1<<30)
	rec.end(id)
	a.MinQueuesDynamic = rep.MaxGroup
	a.MinQueuesStatic = rep.MaxCompeting
	return a, nil
}

// execute runs one analyzed scenario once, checks the run and returns
// its digest and simulated cycles. w is the freshly built workload of a
// semantic scenario, nil otherwise.
func (sc *scenario) execute(a *systolic.Analysis, w *systolic.Workload, rec *recorder, parent, op int32) (digest uint64, cycles int64, err error) {
	eopts := sc.eopts
	if w != nil {
		eopts.Logic = w.Logic
	}
	id := rec.begin(spRun, parent, op)
	res, err := systolic.Execute(a, eopts)
	rec.end(id)
	if err != nil {
		return 0, 0, fmt.Errorf("%s: execute: %w", sc.name, err)
	}
	if rec != nil {
		rec.add(cRuns, 1)
		rec.add(cCycles, int64(res.Cycles))
		rec.add(cCellCycles, int64(res.Cycles)*int64(a.Program.NumCells()))
		rec.add(cProgramOps, int64(a.Program.TotalOps()))
		rec.add(cWords, int64(res.Stats.WordsMoved))
		rec.add(cGrants, int64(res.Stats.Grants))
		rec.add(cGated, int64(res.Stats.GatedOps))
	}
	id = rec.begin(spCheck, parent, op)
	err = checkRun(a.Program, w, res)
	rec.end(id)
	if err != nil {
		return 0, 0, fmt.Errorf("%s: %w", sc.name, err)
	}
	return foldRun(digestSeed, res), int64(res.Cycles), nil
}

// checkRun is the accuracy reference of the library workloads:
// Theorem 1's verdict (every scenario is analyzer-approved and runs
// under the compatible policy at an approved budget, so it must
// complete) and the workload's own expected outputs, or — for
// transport-only programs — the synthetic word pattern, which any
// loss, reordering or cross-wiring breaks.
func checkRun(p *systolic.Program, w *systolic.Workload, res *systolic.RunResult) error {
	if !res.Completed {
		return fmt.Errorf("run %s where Theorem 1 promises completion", res.Outcome())
	}
	if w != nil {
		return w.CheckReceived(res.Received)
	}
	var synth machine.SyntheticLogic
	for _, m := range p.Messages() {
		got := res.Received[m.ID]
		if len(got) != m.Words {
			return fmt.Errorf("message %s: received %d words, want %d", m.Name, len(got), m.Words)
		}
		for i, word := range got {
			if word != synth.Produce(m.Sender, m.ID, i) {
				return fmt.Errorf("message %s word %d: got %v", m.Name, i, word)
			}
		}
	}
	return nil
}

// Simulated statistics of a deterministic simulator repeat exactly, so
// every workload folds them into one digest that must not move between
// rounds, between the untraced and the traced pass, or away from the
// value committed for seed 1.

const digestSeed uint64 = 14695981039346656037

// mix folds one value into a digest (FNV-1a over 64-bit words).
func mix(h, v uint64) uint64 { return (h ^ v) * 1099511628211 }

// mixString folds a string into a digest.
func mixString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = mix(h, uint64(s[i]))
	}
	return mix(h, uint64(len(s)))
}

// foldRun folds a run's outcome, cycles, words moved, grants, gated
// ops and blocked set.
func foldRun(h uint64, res *systolic.RunResult) uint64 {
	h = mixString(h, res.Outcome())
	h = mix(h, uint64(res.Cycles))
	h = mix(h, uint64(res.Stats.WordsMoved))
	h = mix(h, uint64(res.Stats.Grants))
	h = mix(h, uint64(res.Stats.Releases))
	h = mix(h, uint64(res.Stats.GatedOps))
	for _, b := range res.Blocked {
		h = mix(h, uint64(b.Cell))
		h = mix(h, uint64(b.OpIdx))
	}
	return h
}

// execsPerOp is how many Execute calls one pass over scs makes.
func execsPerOp(scs []*scenario) int {
	n := 0
	for _, sc := range scs {
		n += sc.repeat
	}
	return n
}
