package machine

import (
	"testing"

	"systolic/internal/topology"
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
