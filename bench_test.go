// Benchmarks regenerate the paper's figures as measured workloads, one
// benchmark per figure (the paper has no numeric tables; its
// "evaluation" is Figures 1–10), plus ablations for the design choices
// the paper calls out. Custom metrics report the figure-level outcome
// (cycles, speedups, deadlock counts) alongside the usual ns/op:
//
//	go test -bench=. -benchmem
//
// These are working benchmarks for one layer at a time; the numbers the
// repository commits to come from tools/perf (see tools/perf/README.md).
package systolic_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"systolic"
)

// mustAnalyze analyzes a workload or aborts the benchmark.
func mustAnalyze(b *testing.B, w *systolic.Workload, opts systolic.AnalyzeOptions) *systolic.Analysis {
	b.Helper()
	a, err := systolic.Analyze(w.Program, w.Topology, opts)
	if err != nil {
		b.Fatal(err)
	}
	return a
}

// BenchmarkFig01_CommunicationModels measures the systolic vs
// memory-to-memory pipeline simulation of Fig 1 and reports the
// throughput ratio as a metric (the paper's "at least four local
// memory accesses" argument, quantified).
func BenchmarkFig01_CommunicationModels(b *testing.B) {
	params := systolic.MemModelParams{Cells: 8, Words: 4096, QueueAccess: 1, MemAccess: 4, Compute: 1}
	var rows []systolic.MemModelRow
	for b.Loop() {
		var err error
		rows, err = systolic.MemModelTable([]systolic.MemModelParams{params})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].Speedup, "speedup")
	b.ReportMetric(float64(rows[0].Systolic), "systolic-cycles")
	b.ReportMetric(float64(rows[0].MemToMem), "memtomem-cycles")
}

// BenchmarkFig02_FIRGeneration measures building the Fig 2 program
// family at the paper's size and scaled up.
func BenchmarkFig02_FIRGeneration(b *testing.B) {
	for _, tc := range []struct{ k, n int }{{3, 2}, {8, 64}, {16, 256}} {
		b.Run(fmt.Sprintf("k=%d,n=%d", tc.k, tc.n), func(b *testing.B) {
			var ops int
			for b.Loop() {
				w, err := systolic.FIR(systolic.FIROptions{Taps: tc.k, Outputs: tc.n})
				if err != nil {
					b.Fatal(err)
				}
				ops = w.Program.TotalOps()
			}
			b.ReportMetric(float64(ops), "program-ops")
		})
	}
}

// BenchmarkFig04_CrossingOff measures the crossing-off schedule of the
// Fig 2 program family (the Fig 4 analysis) and reports the number of
// rounds — 12 for the paper's 3-tap/2-output instance.
func BenchmarkFig04_CrossingOff(b *testing.B) {
	for _, tc := range []struct{ k, n int }{{3, 2}, {8, 64}, {16, 256}} {
		w, err := systolic.FIR(systolic.FIROptions{Taps: tc.k, Outputs: tc.n})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("k=%d,n=%d", tc.k, tc.n), func(b *testing.B) {
			var rounds int
			for b.Loop() {
				rs, free := systolic.CrossOffSchedule(w.Program)
				if !free {
					b.Fatal("FIR not deadlock-free")
				}
				rounds = len(rs)
			}
			b.ReportMetric(float64(rounds), "rounds")
		})
	}
}

// BenchmarkFig05_Classification measures the strict classifier on the
// three deadlocked programs and the lookahead classifier on P1.
func BenchmarkFig05_Classification(b *testing.B) {
	cases := []struct {
		name string
		w    *systolic.Workload
		la   bool
	}{
		{"P1-strict", systolic.Fig5P1Workload(), false},
		{"P1-lookahead", systolic.Fig5P1Workload(), true},
		{"P2-strict", systolic.Fig5P2Workload(), false},
		{"P3-lookahead", systolic.Fig5P3Workload(), true},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			for b.Loop() {
				if tc.la {
					systolic.IsDeadlockFreeWithLookahead(tc.w.Program, 2)
				} else {
					systolic.IsDeadlockFree(tc.w.Program)
				}
			}
		})
	}
}

// BenchmarkFig06_CyclicProgram measures the full pipeline on the
// cyclic-yet-deadlock-free Fig 6 program over a ring.
func BenchmarkFig06_CyclicProgram(b *testing.B) {
	w := systolic.Fig6Workload()
	a := mustAnalyze(b, w, systolic.AnalyzeOptions{})
	var cycles int
	for b.Loop() {
		res, err := systolic.Execute(a, systolic.ExecOptions{QueuesPerLink: 1, Capacity: 1})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Completed {
			b.Fatal(res.Outcome())
		}
		cycles = res.Cycles
	}
	b.ReportMetric(float64(cycles), "cycles")
}

// BenchmarkFig07_Avoidance contrasts naive FCFS (which deadlocks) with
// compatible assignment (which completes) on Fig 7's program with one
// queue per link. The deadlock metric is 1 when the policy stalled.
func BenchmarkFig07_Avoidance(b *testing.B) {
	w := systolic.Fig7Workload(systolic.Fig7Options{})
	a := mustAnalyze(b, w, systolic.AnalyzeOptions{})
	for _, tc := range []struct {
		name   string
		policy systolic.PolicyKind
	}{
		{"naive-fcfs", systolic.NaiveFCFS},
		{"compatible", systolic.DynamicCompatible},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var deadlocked, cycles int
			for b.Loop() {
				res, err := systolic.Execute(a, systolic.ExecOptions{
					Policy: tc.policy, QueuesPerLink: 1, Capacity: 1, Force: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				deadlocked = 0
				if res.Deadlocked {
					deadlocked = 1
				}
				cycles = res.Cycles
			}
			b.ReportMetric(float64(deadlocked), "deadlocked")
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

// BenchmarkFig08_InterleavedReads and BenchmarkFig09_InterleavedWrites
// sweep the queue count: one queue deadlocks (related messages need
// simultaneous queues), two completes.
func BenchmarkFig08_InterleavedReads(b *testing.B)  { interleavedBench(b, systolic.Fig8Workload()) }
func BenchmarkFig09_InterleavedWrites(b *testing.B) { interleavedBench(b, systolic.Fig9Workload()) }

func interleavedBench(b *testing.B, w *systolic.Workload) {
	a := mustAnalyze(b, w, systolic.AnalyzeOptions{})
	for _, queues := range []int{1, 2} {
		b.Run(fmt.Sprintf("queues=%d", queues), func(b *testing.B) {
			var deadlocked int
			for b.Loop() {
				res, err := systolic.Execute(a, systolic.ExecOptions{
					QueuesPerLink: queues, Capacity: 1, Force: true,
				})
				if err != nil {
					b.Fatal(err)
				}
				deadlocked = 0
				if res.Deadlocked {
					deadlocked = 1
				}
			}
			b.ReportMetric(float64(deadlocked), "deadlocked")
		})
	}
}

// BenchmarkFig10_Lookahead measures the lookahead crossing-off on P1
// (the Fig 10 walkthrough) and on the generator-scale symmetric sort,
// which is the same phenomenon at size.
func BenchmarkFig10_Lookahead(b *testing.B) {
	b.Run("p1", func(b *testing.B) {
		w := systolic.Fig5P1Workload()
		for b.Loop() {
			res := systolic.CrossOff(w.Program, systolic.CrossoffOptions{
				Lookahead: true,
				Budget:    func(systolic.MessageID) int { return 2 },
			})
			if !res.DeadlockFree {
				b.Fatal("P1 rejected")
			}
		}
	})
	b.Run("symmetric-sort-n=16", func(b *testing.B) {
		w, err := systolic.SortNetwork(systolic.SortOptions{N: 16, Symmetric: true})
		if err != nil {
			b.Fatal(err)
		}
		for b.Loop() {
			if !systolic.IsDeadlockFreeWithLookahead(w.Program, 1) {
				b.Fatal("symmetric sort rejected")
			}
		}
	})
}

// BenchmarkTheorem1_Pipeline measures the complete avoidance pipeline
// (classify + label + precondition + simulate) on random deadlock-free
// programs; every run must complete (Theorem 1).
func BenchmarkTheorem1_Pipeline(b *testing.B) {
	var progs []*systolic.Program
	for seed := int64(0); seed < 32; seed++ {
		sc, err := systolic.GenerateProgram(seed, systolic.GenOptions{
			Cells: 5, Messages: 6, MaxWords: 4, Interleave: 6,
			Cyclic: true, Topology: systolic.GenTopoLinear,
		})
		if err != nil {
			b.Fatal(err)
		}
		progs = append(progs, sc.Program)
	}
	topo := systolic.LinearArray(5)
	i := 0
	for b.Loop() {
		p := progs[i%len(progs)]
		i++
		a, err := systolic.Analyze(p, topo, systolic.AnalyzeOptions{})
		if err != nil {
			b.Fatal(err)
		}
		res, err := systolic.Execute(a, systolic.ExecOptions{Capacity: 2})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Completed {
			b.Fatalf("Theorem 1 violated: %s", res.Outcome())
		}
	}
}

// BenchmarkSweep measures the concurrent parameter-sweep engine over a
// 144-point grid (Figs 7 and 8 × 3 policies × 4 queue budgets × 3
// capacities × 2 lookaheads), single-worker vs all cores. Run with
// -benchmem: the grid's 144 points are 54 distinct (machine, effective
// config) executions, each column analysed once and replayed on a
// core.Runner whose exec comes warm from the process-wide pool and goes
// back when its span ends, so allocs/op is the figure that moves when a
// per-run, per-point, per-span or per-analysis allocation comes back.
// TestAllocGateSweepBatch gates the same grid per grid point, and the
// end-to-end view is tools/perf's sweep-grid workload (ops_per_s,
// allocs_per_op — which CI gates — and sweep.us_per_point). Simulated cycle counts never change: the
// engine-equivalence suite in internal/refsim and the planned-vs-per-point
// suite in internal/sweep enforce byte-identical results.
func BenchmarkSweep(b *testing.B) {
	f7 := systolic.Fig7Workload(systolic.Fig7Options{})
	f8 := systolic.Fig8Workload()
	cases := []systolic.SweepCase{
		{Name: "fig7", Program: f7.Program, Topology: f7.Topology},
		{Name: "fig8", Program: f8.Program, Topology: f8.Topology},
	}
	axes := systolic.SweepAxes{
		Policies:   []systolic.PolicyKind{systolic.NaiveFCFS, systolic.StaticAssignment, systolic.DynamicCompatible},
		Queues:     []int{0, 1, 2, 3},
		Capacities: []int{1, 2, 4},
		Lookaheads: []int{0, 2},
		Seed:       1,
	}
	grid := axes.Size(len(cases))
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var deadlocks int
			for b.Loop() {
				rep, err := systolic.Sweep(context.Background(), cases, axes,
					systolic.SweepOptions{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				deadlocks = len(rep.Deadlocked())
			}
			b.ReportMetric(float64(grid), "grid-points")
			b.ReportMetric(float64(deadlocks), "deadlocks")
		})
	}
}

// BenchmarkGenerate measures the randomized scenario generator at the
// fuzzing default (per-seed random knobs) and at a pinned large size.
// Baseline (Xeon 2.7 GHz, -benchtime 100x): ~25 µs/op default,
// ~83 µs/op large — generation is never the bottleneck of a fuzz run.
func BenchmarkGenerate(b *testing.B) {
	for _, tc := range []struct {
		name string
		opts systolic.GenOptions
	}{
		{"default", systolic.GenOptions{}},
		{"large", systolic.GenOptions{Cells: 16, Messages: 48, MaxWords: 8, Interleave: 6}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			seed := int64(0)
			var ops int
			for b.Loop() {
				sc, err := systolic.GenerateProgram(seed, tc.opts)
				if err != nil {
					b.Fatal(err)
				}
				seed++
				ops = sc.Program.TotalOps()
			}
			b.ReportMetric(float64(ops), "program-ops")
		})
	}
}

// BenchmarkDiffCheck measures the differential oracle end to end —
// generate, analyze, simulate the policy × budget × capacity matrix,
// assert every invariant — per scenario, single-worker vs all cores.
// Baseline (Xeon 2.7 GHz, -benchtime 100x): ~10.4 ms per 64-scenario
// batch single-worker, i.e. ~160 µs per scenario at 8 simulations
// each; `sysdl fuzz -n 500` completes in well under a second.
func BenchmarkDiffCheck(b *testing.B) {
	const n = 64
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var sims int
			for b.Loop() {
				rep, err := systolic.DiffRun(context.Background(), n, 1,
					systolic.DiffOptions{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				if v := rep.Violations(); len(v) > 0 {
					b.Fatalf("oracle found violations: %v", v)
				}
				sims = 0
				for _, res := range rep.Results {
					sims += res.Runs
				}
			}
			b.ReportMetric(float64(n), "scenarios")
			b.ReportMetric(float64(sims), "simulations")
		})
	}
}

// BenchmarkSimThroughput measures simulator speed on the scaled FIR
// workload (cycles simulated per second is the interesting figure).
func BenchmarkSimThroughput(b *testing.B) {
	for _, tc := range []struct{ k, n int }{{3, 64}, {8, 256}, {16, 1024}} {
		w, err := systolic.FIR(systolic.FIROptions{Taps: tc.k, Outputs: tc.n})
		if err != nil {
			b.Fatal(err)
		}
		a := mustAnalyze(b, w, systolic.AnalyzeOptions{})
		b.Run(fmt.Sprintf("k=%d,n=%d", tc.k, tc.n), func(b *testing.B) {
			var cycles int
			for b.Loop() {
				res, err := systolic.Execute(a, systolic.ExecOptions{Capacity: 2, Logic: w.Logic})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Completed {
					b.Fatal(res.Outcome())
				}
				cycles = res.Cycles
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
		})
	}
}

// BenchmarkMatMulMesh measures the 2-D mesh workload end to end.
func BenchmarkMatMulMesh(b *testing.B) {
	for _, n := range []int{3, 5} {
		w, err := systolic.MatMul(systolic.MatMulOptions{Rows: n, Inner: n, Cols: n})
		if err != nil {
			b.Fatal(err)
		}
		a := mustAnalyze(b, w, systolic.AnalyzeOptions{})
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			var cycles int
			for b.Loop() {
				res, err := systolic.Execute(a, systolic.ExecOptions{Capacity: 2, Logic: w.Logic})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Completed {
					b.Fatal(res.Outcome())
				}
				cycles = res.Cycles
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
		})
	}
}

// BenchmarkAblation_Labeling contrasts the trivial all-ones labeling
// (§5's "will not likely yield an efficient use of queues") with the
// §6 scheme: the trivial labeling inflates the simultaneous-assignment
// group and therefore the queues each link must have.
func BenchmarkAblation_Labeling(b *testing.B) {
	// Sort concentrates many messages on the host link, so label
	// quality directly controls the simultaneous-assignment group
	// size (trivial: everything shares label 1).
	w, err := systolic.SortNetwork(systolic.SortOptions{N: 8})
	if err != nil {
		b.Fatal(err)
	}
	a := mustAnalyze(b, w, systolic.AnalyzeOptions{})
	trivial := systolic.TrivialLabels(w.Program)
	repTrivial, err := systolic.CheckPreconditions(w.Program, w.Topology, trivial.Dense, 1<<30)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("section6", func(b *testing.B) {
		for b.Loop() {
			if _, err := systolic.AssignLabels(w.Program, systolic.LabelOptions{}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(a.MinQueuesDynamic), "min-queues")
	})
	b.Run("trivial", func(b *testing.B) {
		for b.Loop() {
			systolic.TrivialLabels(w.Program)
		}
		b.ReportMetric(float64(repTrivial.MaxGroup), "min-queues")
	})
}

// BenchmarkAblation_QueueCapacity sweeps per-queue capacity on the
// Fig 2-family workload: deeper queues cut stalls until the pipeline
// bound takes over.
func BenchmarkAblation_QueueCapacity(b *testing.B) {
	w, err := systolic.FIR(systolic.FIROptions{Taps: 8, Outputs: 128})
	if err != nil {
		b.Fatal(err)
	}
	a := mustAnalyze(b, w, systolic.AnalyzeOptions{})
	for _, capacity := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("capacity=%d", capacity), func(b *testing.B) {
			var cycles int
			for b.Loop() {
				res, err := systolic.Execute(a, systolic.ExecOptions{Capacity: capacity, Logic: w.Logic})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Completed {
					b.Fatal(res.Outcome())
				}
				cycles = res.Cycles
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
		})
	}
}

// BenchmarkAblation_StaticVsDynamic contrasts §7.1 and §7.2 on Fig 3's
// workload: static needs a queue per competing message, dynamic
// recycles queues at equal cycle cost here.
func BenchmarkAblation_StaticVsDynamic(b *testing.B) {
	w := systolic.Fig3Workload()
	a := mustAnalyze(b, w, systolic.AnalyzeOptions{})
	for _, tc := range []struct {
		name   string
		policy systolic.PolicyKind
		queues int
	}{
		{"static", systolic.StaticAssignment, 0},   // defaults to MinQueuesStatic
		{"dynamic", systolic.DynamicCompatible, 0}, // defaults to MinQueuesDynamic
	} {
		b.Run(tc.name, func(b *testing.B) {
			var cycles, queues int
			for b.Loop() {
				res, err := systolic.Execute(a, systolic.ExecOptions{
					Policy: tc.policy, QueuesPerLink: tc.queues, Capacity: 2,
				})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Completed {
					b.Fatal(res.Outcome())
				}
				cycles = res.Cycles
			}
			queues = a.MinQueuesDynamic
			if tc.policy == systolic.StaticAssignment {
				queues = a.MinQueuesStatic
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
			b.ReportMetric(float64(queues), "queues-per-link")
		})
	}
}

// BenchmarkAblation_QueueExtension measures the §8 queue-extension
// trade: extra effective capacity at a per-access latency penalty.
func BenchmarkAblation_QueueExtension(b *testing.B) {
	w := systolic.Fig5P1Workload() // needs 2 words of buffering for A
	a, err := systolic.Analyze(w.Program, w.Topology, systolic.AnalyzeOptions{Lookahead: true, Capacity: 2})
	if err != nil {
		b.Fatal(err)
	}
	for _, tc := range []struct {
		name                   string
		capacity, ext, penalty int
	}{
		{"plain-capacity-2", 2, 0, 0},
		{"extension-1+1-penalty-1", 1, 1, 1},
		{"extension-1+1-penalty-4", 1, 1, 4},
	} {
		b.Run(tc.name, func(b *testing.B) {
			var cycles int
			for b.Loop() {
				res, err := systolic.Execute(a, systolic.ExecOptions{
					QueuesPerLink: 2,
					Capacity:      tc.capacity,
					ExtCapacity:   tc.ext,
					ExtPenalty:    tc.penalty,
				})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Completed {
					b.Fatal(res.Outcome())
				}
				cycles = res.Cycles
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
		})
	}
}

// largeLinearWorkload builds a daisy-chain wave over a cells-long
// linear array: message i travels cell i → cell i+1, and cell i+1
// reads all of message i before writing message i+1. Only ~2 messages
// are ever in flight, so at any cycle the overwhelming majority of
// cells, links, and messages are idle — the workload the ready-set
// scheduler's O(active) per-cycle cost is built for.
func largeLinearWorkload(b testing.TB, cells, words int) *systolic.Analysis {
	b.Helper()
	bd := systolic.NewProgram()
	ids := make([]systolic.CellID, cells)
	for i := range ids {
		ids[i] = bd.AddCell(fmt.Sprintf("C%d", i))
	}
	msgs := make([]systolic.MessageID, cells-1)
	for i := range msgs {
		msgs[i] = bd.DeclareMessage(fmt.Sprintf("M%d", i), ids[i], ids[i+1], words)
	}
	bd.WriteN(ids[0], msgs[0], words)
	for i := 1; i < cells-1; i++ {
		bd.ReadN(ids[i], msgs[i-1], words)
		bd.WriteN(ids[i], msgs[i], words)
	}
	bd.ReadN(ids[cells-1], msgs[cells-2], words)
	p, err := bd.Build()
	if err != nil {
		b.Fatal(err)
	}
	a, err := systolic.Analyze(p, systolic.LinearArray(cells), systolic.AnalyzeOptions{})
	if err != nil {
		b.Fatal(err)
	}
	return a
}

// BenchmarkLargeLinear measures the compiled machine on mostly-idle
// large arrays. The figure to watch is ns/sim-cycle: under the old
// full-scan loop it grew linearly with the array size (every cycle
// touched every cell and queue pool); under the ready-set scheduler
// it stays roughly flat from 256 to 1024 cells because per-cycle cost
// follows the ~2 in-flight messages, not the array.
func BenchmarkLargeLinear(b *testing.B) {
	for _, cells := range []int{256, 1024} {
		a := largeLinearWorkload(b, cells, 4)
		b.Run(fmt.Sprintf("cells=%d", cells), func(b *testing.B) {
			var cycles int
			for b.Loop() {
				res, err := systolic.Execute(a, systolic.ExecOptions{Capacity: 2})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Completed {
					b.Fatal(res.Outcome())
				}
				cycles = res.Cycles
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(cycles), "ns/sim-cycle")
		})
	}
}

// wideLinearWorkload is the busy counterpart of largeLinearWorkload:
// every interior cell word-interleaves R(M[i-1]) with W(M[i]), so once
// the wavefront fills, nearly all cells issue and nearly all messages
// are in flight every cycle — the per-cycle ready sets scale with the
// array.
func wideLinearWorkload(b testing.TB, cells, words int) *systolic.Analysis {
	b.Helper()
	bd := systolic.NewProgram()
	ids := make([]systolic.CellID, cells)
	for i := range ids {
		ids[i] = bd.AddCell(fmt.Sprintf("C%d", i))
	}
	msgs := make([]systolic.MessageID, cells-1)
	for i := range msgs {
		msgs[i] = bd.DeclareMessage(fmt.Sprintf("M%d", i), ids[i], ids[i+1], words)
	}
	bd.WriteN(ids[0], msgs[0], words)
	for i := 1; i < cells-1; i++ {
		for w := 0; w < words; w++ {
			bd.Read(ids[i], msgs[i-1])
			bd.Write(ids[i], msgs[i])
		}
	}
	bd.ReadN(ids[cells-1], msgs[cells-2], words)
	p, err := bd.Build()
	if err != nil {
		b.Fatal(err)
	}
	a, err := systolic.Analyze(p, systolic.LinearArray(cells), systolic.AnalyzeOptions{})
	if err != nil {
		b.Fatal(err)
	}
	return a
}
