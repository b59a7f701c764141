package machine

import (
	"fmt"
	"testing"

	"systolic/internal/assign"
	"systolic/internal/label"
	"systolic/internal/model"
	"systolic/internal/topology"
	"systolic/internal/verify"
)

// BenchmarkChainDelay64 is the delay-64 chain the ROADMAP's event-wheel
// item asks for: a 1024-cell daisy chain whose every word hop is
// followed by a 64-cycle busy window, so ~19 simulated cycles in 20
// have no event. The figures to watch are the two normalized ones:
// ns/executed-cycle is the scheduler's cost per cycle it actually ran
// (nearly all of which carry an event), and ns/sim-cycle is that
// divided by the fast-forward's skip ratio — host time follows events,
// not simulated cycles. It lives in this package because the
// executed-cycle counter is deliberately not part of Result.
func BenchmarkChainDelay64(b *testing.B) {
	const cells = 1024
	m := mustCompile(b, sparseChain(b, cells, 4), topology.Linear(cells))
	ex := m.NewExec()
	opts := fcfs(2, 2)
	opts.LinkModel = mustLinkModel(b, "fixed,delay=64")
	var cycles, executed int
	for b.Loop() {
		res, err := ex.Run(opts)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Completed {
			b.Fatalf("completed=%v deadlocked=%v timedOut=%v", res.Completed, res.Deadlocked, res.TimedOut)
		}
		cycles, executed = res.Cycles, ex.e.executed
	}
	perRun := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
	b.ReportMetric(float64(cycles), "sim-cycles")
	b.ReportMetric(float64(executed), "executed-cycles")
	b.ReportMetric(perRun/float64(cycles), "ns/sim-cycle")
	b.ReportMetric(perRun/float64(executed), "ns/executed-cycle")
}

// busyScenario is one of tools/perf's run-busy programs, rebuilt here
// because that tool is package main.
type busyScenario struct {
	name string
	p    *model.Program
	topo topology.Topology
}

// meshFlow sends one message along every row and every column of a
// mesh: rows+cols multi-hop messages advancing at once, the
// interior-advance-heavy scenario.
func meshFlow(t testing.TB, rows, cols, words int) *model.Program {
	t.Helper()
	b := model.NewBuilder()
	ids := b.AddCells("P", rows*cols)
	flow := func(name string, from, to model.CellID) {
		m := b.DeclareMessage(name, from, to, words)
		b.WriteN(from, m, words)
		b.ReadN(to, m, words)
	}
	for r := 0; r < rows; r++ {
		flow(fmt.Sprintf("ROW%d", r), ids[r*cols], ids[r*cols+cols-1])
	}
	for c := 0; c < cols; c++ {
		flow(fmt.Sprintf("COL%d", c), ids[c], ids[(rows-1)*cols+c])
	}
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// stencil is internal/workload's diffusion stencil (which this package
// cannot import): every iteration each horizontal and then each
// vertical neighbor pair exchanges one word each way, so queues bind
// and release constantly.
func stencil(t testing.TB, rows, cols, iters int) *model.Program {
	t.Helper()
	b := model.NewBuilder()
	ids := b.AddCells("S", rows*cols)
	pair := func(name string, a, bb model.CellID) {
		e := b.DeclareMessage(name+"e", a, bb, 1)
		f := b.DeclareMessage(name+"f", bb, a, 1)
		b.Write(a, e).Read(bb, e).Write(bb, f).Read(a, f)
	}
	for k := 0; k < iters; k++ {
		for i := 0; i < rows; i++ {
			for j := 0; j+1 < cols; j++ {
				pair(fmt.Sprintf("H%d.%d.%d", k, i, j), ids[i*cols+j], ids[i*cols+j+1])
			}
		}
		for i := 0; i+1 < rows; i++ {
			for j := 0; j < cols; j++ {
				pair(fmt.Sprintf("V%d.%d.%d", k, i, j), ids[i*cols+j], ids[(i+1)*cols+j])
			}
		}
	}
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// BenchmarkBusy runs the four run-busy scenarios of tools/perf the way
// that workload does — labeled, compatible policy, the analysis'
// minimum queues, capacity 2, through the pooled Machine.Run — one
// sub-benchmark each, so a scheduler profile is
//
//	go test -run '^$' -bench 'Busy/fft' -cpuprofile cpu.prof ./internal/machine
//
// ns/cell-cycle is host time per cell per simulated cycle (tools/perf's
// machine.ns_per_cell_cycle); words/s is hop traversals per second.
func BenchmarkBusy(b *testing.B) {
	fft, fftTopo := butterfly(b, 8)
	for _, sc := range []busyScenario{
		// Every cell issues every cycle: the op-fetch-heavy scenario.
		{"wide-linear-1024x512", pipeline(b, 1024, 512), topology.Linear(1024)},
		{"mesh-flow-32x32x64", meshFlow(b, 32, 32, 64), topology.Mesh2D(32, 32)},
		{"fft-8", fft, fftTopo},
		{"stencil-24x24x8", stencil(b, 24, 24, 8), topology.Mesh2D(24, 24)},
	} {
		b.Run(sc.name, func(b *testing.B) {
			routes, err := topology.Routes(sc.p, sc.topo)
			if err != nil {
				b.Fatal(err)
			}
			res, lab := label.Run(sc.p, label.Options{})
			if !res.DeadlockFree {
				b.Fatal("not deadlock-free")
			}
			m, err := Compile(sc.p, sc.topo, routes, lab.Dense)
			if err != nil {
				b.Fatal(err)
			}
			queues := max(1, verify.CheckPreconditionsRoutes(routes, lab.Dense, 1<<30).MaxGroup)
			var cycles, words int
			for b.Loop() {
				res, err := m.Run(ExecOptions{Policy: assign.Compatible(), QueuesPerLink: queues, Capacity: 2})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Completed {
					b.Fatalf("completed=%v deadlocked=%v timedOut=%v", res.Completed, res.Deadlocked, res.TimedOut)
				}
				cycles, words = res.Cycles, res.Stats.WordsMoved
			}
			perRun := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			b.ReportMetric(float64(cycles), "sim-cycles")
			b.ReportMetric(perRun/float64(cycles)/float64(sc.p.NumCells()), "ns/cell-cycle")
			b.ReportMetric(float64(words)/(perRun/1e9), "words/s")
		})
	}
}

// benchPipeline builds a words-long single-message transfer across the
// given number of cells (hops = cells-1).
func benchPipeline(b *testing.B, cells, words int) *model.Program {
	b.Helper()
	bd := model.NewBuilder()
	ids := bd.AddCells("C", cells)
	m := bd.DeclareMessage("M", ids[0], ids[cells-1], words)
	bd.WriteN(ids[0], m, words)
	bd.ReadN(ids[cells-1], m, words)
	p, err := bd.Build()
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkTransport measures raw word transport: simulated
// words-per-second through a multi-hop route.
func BenchmarkTransport(b *testing.B) {
	for _, tc := range []struct{ cells, words int }{
		{2, 1024}, {5, 1024}, {9, 1024},
	} {
		p := benchPipeline(b, tc.cells, tc.words)
		topo := topology.Linear(tc.cells)
		b.Run(fmt.Sprintf("hops=%d", tc.cells-1), func(b *testing.B) {
			var cycles int
			for b.Loop() {
				res, err := compileRun(p, topo, ExecOptions{QueuesPerLink: 1, Capacity: 2, Policy: assign.Static()})
				if err != nil {
					b.Fatal(err)
				}
				if !res.Completed {
					b.Fatal(res.Outcome())
				}
				cycles = res.Cycles
			}
			b.ReportMetric(float64(tc.words)*float64(b.N)/b.Elapsed().Seconds(), "words/s")
			b.ReportMetric(float64(cycles), "sim-cycles")
		})
	}
}

// BenchmarkRendezvous measures the capacity-0 latch path.
func BenchmarkRendezvous(b *testing.B) {
	p := benchPipeline(b, 2, 4096)
	for b.Loop() {
		res, err := compileRun(p, topology.Linear(2), ExecOptions{QueuesPerLink: 1, Capacity: 0, Policy: assign.Static()})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Completed {
			b.Fatal(res.Outcome())
		}
	}
}

// BenchmarkGrantChurn stresses dynamic rebinding: many short messages
// sharing one queue sequentially.
func BenchmarkGrantChurn(b *testing.B) {
	bd := model.NewBuilder()
	ids := bd.AddCells("C", 2)
	const n = 64
	msgs := make([]model.MessageID, n)
	for i := range msgs {
		msgs[i] = bd.DeclareMessage(fmt.Sprintf("M%d", i), ids[0], ids[1], 2)
	}
	for i := range msgs {
		bd.WriteN(ids[0], msgs[i], 2)
	}
	for i := range msgs {
		bd.ReadN(ids[1], msgs[i], 2)
	}
	p, err := bd.Build()
	if err != nil {
		b.Fatal(err)
	}
	labels := make([]int, n)
	for i := range labels {
		labels[i] = i + 1
	}
	var releases int
	for b.Loop() {
		m, err := Compile(p, topology.Linear(2), nil, labels)
		if err != nil {
			b.Fatal(err)
		}
		res, err := m.Run(ExecOptions{QueuesPerLink: 1, Capacity: 4, Policy: assign.Compatible()})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Completed {
			b.Fatal(res.Outcome())
		}
		releases = res.Stats.Releases
	}
	b.ReportMetric(float64(releases), "rebinds")
}
