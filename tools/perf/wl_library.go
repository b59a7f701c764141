package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"systolic"
	"systolic/internal/core"
)

// The three library workloads: cold-pipeline walks every layer from
// DSL text for each op; run-busy and run-sparse hold precompiled
// analyses and spend their ops in machine.Run alone, on opposite kinds
// of program. One goroutine drives each: the library's callers are a
// CLI and scripts, which run one thing at a time.

// libraryWorkload is a scenario set and the orders the ops walk it in.
type libraryWorkload struct {
	size sizeClass
	// cold says each op starts from DSL text; otherwise the analyses
	// are built in set-up and ops only execute.
	cold      bool
	opsRound  int
	scenarios func(seed int64) []*scenario

	scs    []*scenario
	orders [][]int // seeded: the order op i visits the scenarios in
}

func (w *libraryWorkload) ops() int       { return w.opsRound }
func (w *libraryWorkload) prepare() error { return nil }
func (w *libraryWorkload) tearDown() error {
	w.scs, w.orders = nil, nil
	return nil
}

func (w *libraryWorkload) setUp(seed int64, rec *recorder) error {
	w.scs = w.scenarios(seed)
	for _, sc := range w.scs {
		var err error
		if w.cold {
			err = sc.freezeSource(rec)
		} else {
			err = sc.freezeAnalysis(rec)
		}
		if err != nil {
			return err
		}
	}
	rng := rand.New(rand.NewSource(seed))
	w.orders = make([][]int, w.opsRound)
	for i := range w.orders {
		w.orders[i] = rng.Perm(len(w.scs))
	}
	return nil
}

func (w *libraryWorkload) round(out []opResult, rec *recorder) {
	for i := range out {
		start := time.Now()
		id := rec.begin(spOp, -1, int32(i))
		w.op(&out[i], w.orders[i], rec, id, int32(i))
		rec.end(id)
		out[i].lat = time.Since(start)
	}
}

// op is one pass over the scenario set.
func (w *libraryWorkload) op(o *opResult, order []int, rec *recorder, parent, op int32) {
	o.digest = digestSeed
	for _, si := range order {
		sc := w.scs[si]
		a := sc.a
		var built *systolic.Workload
		o.attempted += int32(sc.repeat)
		if w.cold {
			var err error
			if a, built, err = sc.coldStart(rec, parent, op); err != nil {
				o.fail(err, sc.repeat)
				continue
			}
		}
		for r := 0; r < sc.repeat; r++ {
			d, cycles, err := sc.execute(a, built, rec, parent, op)
			if err != nil {
				o.fail(err, 1)
				continue
			}
			o.digest = mix(o.digest, d)
			o.cycles += cycles
		}
	}
}

// fail records n failed checks and keeps the first error for the report.
func (o *opResult) fail(err error, n int) {
	o.failed += int32(n)
	if o.err == nil {
		o.err = err
	}
}

// coldStart takes a scenario from DSL text to a compiled analysis: the
// path a first `sysdl run FILE` pays.
func (sc *scenario) coldStart(rec *recorder, parent, op int32) (*systolic.Analysis, *systolic.Workload, error) {
	var built *systolic.Workload
	if sc.semantic {
		var err error
		if built, err = sc.build(); err != nil {
			return nil, nil, fmt.Errorf("%s: build: %w", sc.name, err)
		}
	}
	id := rec.begin(spParse, parent, op)
	p, t, err := systolic.ParseDSL(sc.src)
	rec.end(id)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: parse: %w", sc.name, err)
	}
	rec.add(cParseBytes, int64(len(sc.src)))
	a, err := analyze(p, t, sc.aopts, rec, parent, op)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: analyze: %w", sc.name, err)
	}
	if !a.DeadlockFree {
		return nil, nil, fmt.Errorf("%s: classified not deadlock-free", sc.name)
	}
	id = rec.begin(spCompile, parent, op)
	err = systolic.Precompile(a)
	rec.end(id)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: compile: %w", sc.name, err)
	}
	return a, built, nil
}

// extras measures what the op loop cannot: the whole Analyze (so its
// self time is whole minus the traced parts), the content address,
// allocations per run, and the two ratios the ROADMAP wants settled —
// a retained Runner against the pooled Execute, and 4 shards against
// 1 — each over the same runs the ops make.
func (w *libraryWorkload) extras(lv layerValues, rec *recorder) error {
	var analyses []*systolic.Analysis
	var wholeNS, fingerNS float64
	for _, sc := range w.scs {
		// Whole and decomposed side by side, under the same heap and
		// host conditions: the median of three, or one turn each for an
		// analysis that costs a large part of a second.
		var a *systolic.Analysis
		var ds []float64
		for r := 0; r < 3; r++ {
			id := rec.begin(spAnalyze, -1, -1)
			start := time.Now()
			var err error
			a, err = systolic.Analyze(sc.prog, sc.topo, sc.aopts)
			d := time.Since(start)
			rec.end(id)
			if err == nil {
				_, err = analyzeDecomposed(sc.prog, sc.topo, sc.aopts, rec, -1, -1)
			}
			if err != nil {
				return fmt.Errorf("%s: analyze: %w", sc.name, err)
			}
			ds = append(ds, float64(d))
			if d > 200*time.Millisecond {
				break
			}
		}
		sort.Float64s(ds)
		wholeNS += percentile(ds, 50)
		if err := systolic.Precompile(a); err != nil {
			return fmt.Errorf("%s: compile: %w", sc.name, err)
		}
		m, err := a.Machine()
		if err != nil {
			return err
		}
		id := rec.begin(spFingerprint, -1, -1)
		start := time.Now()
		fp := m.Fingerprint()
		fingerNS += float64(time.Since(start))
		rec.end(id)
		if len(fp) != 64 {
			return fmt.Errorf("%s: fingerprint %q", sc.name, fp)
		}
		analyses = append(analyses, a)
	}
	// Both are per pass over the scenario set: per op where ops analyze,
	// per set-up where set-up does. The parts are the decomposed steps'
	// mean over the same turns.
	tot := rec.totals()
	var partsAll float64
	for _, name := range []spanName{spRoutes, spCrossoff, spLabelAssign, spLabelCheck, spVerify} {
		partsAll += float64(tot.ns[phExtras][name])
	}
	wholeAll := float64(tot.ns[phExtras][spAnalyze])
	lv["core.analyze_ms"] = wholeNS / 1e6
	lv["core.analyze_self_ms"] = wholeNS / 1e6 * (1 - partsAll/wholeAll)
	lv["machine.fingerprint_ms"] = fingerNS / 1e6

	pooled := func(workers int) func() error {
		return func() error {
			for i, sc := range w.scs {
				eo := sc.eopts
				eo.Workers = workers
				for r := 0; r < sc.repeat; r++ {
					res, err := systolic.Execute(analyses[i], eo)
					if err != nil {
						return fmt.Errorf("%s: %w", sc.name, err)
					}
					if !res.Completed {
						return fmt.Errorf("%s: %s at %d workers", sc.name, res.Outcome(), workers)
					}
				}
			}
			return nil
		}
	}
	runners := make([]*core.Runner, len(analyses))
	for i, a := range analyses {
		runners[i] = core.NewRunner(a)
	}
	retained := func() error {
		for i, sc := range w.scs {
			for r := 0; r < sc.repeat; r++ {
				res, err := runners[i].Execute(sc.eopts)
				if err != nil {
					return fmt.Errorf("%s: runner: %w", sc.name, err)
				}
				if !res.Completed {
					return fmt.Errorf("%s: runner: %s", sc.name, res.Outcome())
				}
			}
		}
		return nil
	}

	// Allocations per Execute over one pass of the pooled path, counted
	// the way allocs_per_op is: on one P, after a pass that fills the
	// machines' scratch pools.
	procs := runtime.GOMAXPROCS(1)
	var m0, m1 runtime.MemStats
	err := pooled(0)()
	if err == nil {
		runtime.ReadMemStats(&m0)
		err = pooled(0)()
		runtime.ReadMemStats(&m1)
	}
	runtime.GOMAXPROCS(procs)
	if err != nil {
		return err
	}
	lv["machine.run_allocs"] = float64(m1.Mallocs-m0.Mallocs) / float64(execsPerOp(w.scs))

	r, err := timeRatio(w.size, retained, pooled(0))
	if err != nil {
		return err
	}
	lv["core.runner_vs_execute"] = r
	if r, err = timeRatio(w.size, pooled(4), pooled(1)); err != nil {
		return err
	}
	lv["machine.shard4_vs_1"] = r
	return nil
}

// timeRatio times two ways of doing the same work, alternating them so
// host drift lands on both, and returns median(a) / median(b). Each
// side gets at least three turns and, at full size, the pair about a
// second.
func timeRatio(size sizeClass, a, b func() error) (float64, error) {
	var as, bs []float64
	start := time.Now()
	for len(as) < 3 || (size == full && time.Since(start) < time.Second && len(as) < 50) {
		for i, f := range []func() error{a, b} {
			t0 := time.Now()
			if err := f(); err != nil {
				return 0, err
			}
			d := float64(time.Since(t0))
			if i == 0 {
				as = append(as, d)
			} else {
				bs = append(bs, d)
			}
		}
	}
	sort.Float64s(as)
	sort.Float64s(bs)
	return percentile(as, 50) / percentile(bs, 50), nil
}

// scn builds a scenario from a workload generator.
func scn(name string, build func() (*systolic.Workload, error)) *scenario {
	return &scenario{name: name, build: build, repeat: 1, eopts: systolic.ExecOptions{Capacity: 2}}
}

func (s *scenario) withLogic() *scenario { s.semantic = true; return s }
func (s *scenario) times(n int) *scenario {
	s.repeat = n
	return s
}
func (s *scenario) lookahead(capacity int) *scenario {
	s.aopts = systolic.AnalyzeOptions{Lookahead: true, Capacity: capacity}
	return s
}
func (s *scenario) linkModel(spec string) *scenario {
	plan, err := systolic.ParseLinkModelSpec(spec)
	if err != nil {
		panic(err) // a literal in this file
	}
	s.eopts.LinkModel = plan
	return s
}
func (s *scenario) faults(spec string) *scenario {
	plan, err := systolic.ParseFaultSpec(spec)
	if err != nil {
		panic(err) // built from literals in this file
	}
	s.eopts.Faults = plan
	return s
}

func newColdPipeline(size sizeClass) workload {
	w := &libraryWorkload{size: size, cold: true, opsRound: 3}
	// Sizes: logN, stencil side and iterations, tokens and experts, FIR
	// taps and outputs, sort width, matmul side, generated cells and
	// messages.
	logN, side, iters, tokens, experts, taps, outputs, width, mm, cells, msgs := 7, 16, 4, 256, 16, 16, 1024, 2000, 5, 32, 64
	if size == tiny {
		logN, side, iters, tokens, experts, taps, outputs, width, mm, cells, msgs = 3, 3, 2, 6, 3, 4, 32, 16, 2, 8, 12
		w.opsRound = 2
	}
	w.scenarios = func(seed int64) []*scenario {
		gen := systolic.GenOptions{Cells: cells, Messages: msgs, MaxWords: 4, Interleave: 4, Cyclic: true, Topology: systolic.GenTopoMesh}
		return []*scenario{
			scn("fft", func() (*systolic.Workload, error) { return systolic.FFTGraph(systolic.FFTOptions{LogN: logN}) }),
			scn("stencil", func() (*systolic.Workload, error) {
				return systolic.StencilGraph(systolic.StencilOptions{Rows: side, Cols: side, Iters: iters})
			}),
			scn("attention", func() (*systolic.Workload, error) {
				return systolic.AttentionGraph(systolic.AttentionOptions{Tokens: tokens, Experts: experts})
			}).withLogic(),
			scn("fir", func() (*systolic.Workload, error) {
				return systolic.FIR(systolic.FIROptions{Taps: taps, Outputs: outputs})
			}).withLogic(),
			scn("pipesort", func() (*systolic.Workload, error) {
				return systolic.PipelinedSortNetwork(systolic.PipelinedSortOptions{Width: width, Rounds: 4})
			}),
			scn("matmul", func() (*systolic.Workload, error) {
				return systolic.MatMul(systolic.MatMulOptions{Rows: mm, Inner: mm, Cols: mm})
			}).withLogic(),
			scn("gen-strict", func() (*systolic.Workload, error) { return genWorkload(2*seed, gen) }),
			scn("gen-lookahead", func() (*systolic.Workload, error) { return genWorkload(2*seed+1, gen) }).lookahead(2),
		}
	}
	return w
}

func newRunBusy(size sizeClass) workload {
	w := &libraryWorkload{size: size, opsRound: 7}
	cells, words, side, flow, logN, stencil, iters := 1024, 512, 32, 64, 8, 24, 8
	if size == tiny {
		cells, words, side, flow, logN, stencil, iters = 16, 8, 4, 4, 3, 3, 2
		w.opsRound = 2
	}
	w.scenarios = func(int64) []*scenario {
		return []*scenario{
			// Issue-heavy: every cell active every cycle.
			scn("wide-linear", func() (*systolic.Workload, error) { return wideLinearProgram(cells, words) }),
			// Interior-advance-heavy.
			scn("mesh-flow", func() (*systolic.Workload, error) { return meshFlowProgram(side, side, flow) }).times(8),
			// Deep multi-hop routes, grant-heavy.
			scn("fft", func() (*systolic.Workload, error) { return systolic.FFTGraph(systolic.FFTOptions{LogN: logN}) }),
			// Bind/release churn.
			scn("stencil", func() (*systolic.Workload, error) {
				return systolic.StencilGraph(systolic.StencilOptions{Rows: stencil, Cols: stencil, Iters: iters})
			}),
		}
	}
	return w
}

func newRunSparse(size sizeClass) workload {
	w := &libraryWorkload{size: size, opsRound: 30}
	long, short, shortWords, width := 1024, 64, 16, 4000
	if size == tiny {
		long, short, shortWords, width = 24, 8, 4, 16
		w.opsRound = 2
	}
	w.scenarios = func(seed int64) []*scenario {
		// The faulted chain's slow cell and slow link sit where the seed
		// puts them.
		rng := rand.New(rand.NewSource(seed))
		cell, link := 1+rng.Intn(long-2), rng.Intn(long-1)
		chain := func() (*systolic.Workload, error) { return chainProgram(long, 4) }
		return []*scenario{
			scn("chain", chain).times(4),
			// ~200 simulated cycles per word hop, nearly all of them empty.
			scn("chain-delay64", chain).linkModel("fixed,delay=64"),
			scn("chain-faulted", chain).faults(fmt.Sprintf("cell:%d:slow=16,link:%d:slow=8", cell, link)).times(4),
			scn("short-chain-delay64", func() (*systolic.Workload, error) { return chainProgram(short, shortWords) }).linkModel("fixed,delay=64").times(2),
			// A couple of dozen cycles: per-run reset cost, O(cells), is the run.
			scn("pipesort", func() (*systolic.Workload, error) {
				return systolic.PipelinedSortNetwork(systolic.PipelinedSortOptions{Width: width, Rounds: 4})
			}),
		}
	}
	return w
}
