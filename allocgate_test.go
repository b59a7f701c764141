package systolic_test

// Allocation gates for the compile-once execution core: CI fails when
// a change re-introduces per-run allocations that scale with program
// or array size. Budgets are ~3x the measured steady state (8–16
// allocs per Execute) so legitimate small additions don't flap the
// gate, while an O(cells) or O(messages) regression (hundreds to
// thousands of allocations) trips it immediately. The gates are
// skipped under the race detector, whose instrumentation changes
// allocation behavior.

import (
	"context"
	"testing"
	"time"

	"systolic"
)

// allocGate asserts the steady-state allocations of one Execute call
// against a budget, after a warm-up run has populated the machine's
// execution pool.
func allocGate(t *testing.T, name string, budget float64, a *systolic.Analysis, opts systolic.ExecOptions) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation gates are not meaningful under -race")
	}
	run := func() {
		res, err := systolic.Execute(a, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatal(res.Outcome())
		}
	}
	run() // warm the pooled exec scratch
	if got := testing.AllocsPerRun(10, run); got > budget {
		t.Errorf("%s: %v allocs per Execute, budget %v", name, got, budget)
	}
}

// TestAllocGateExecute gates the per-run allocation count of the
// compiled machine on a small analyzed workload.
func TestAllocGateExecute(t *testing.T) {
	w := systolic.Fig7Workload(systolic.Fig7Options{})
	a, err := systolic.Analyze(w.Program, w.Topology, systolic.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	allocGate(t, "fig7/compatible", 48, a, systolic.ExecOptions{QueuesPerLink: 2, Capacity: 1})
	allocGate(t, "fig7/naive-fcfs", 48, a, systolic.ExecOptions{
		Policy: systolic.NaiveFCFS, QueuesPerLink: 2, Capacity: 1, Force: true,
	})
}

// TestAllocGateExecuteScaleFree gates the property the ready-set
// scheduler exists for: per-run allocations must not scale with the
// array — a 1024-cell mostly-idle workload gets the same budget as an
// 8-cell one.
func TestAllocGateExecuteScaleFree(t *testing.T) {
	a := largeLinearWorkload(t, 1024, 4)
	allocGate(t, "large-linear-1024", 48, a, systolic.ExecOptions{Capacity: 2})
}

// TestAllocGateSweepBatch gates the planned sweep driver: on the
// benchmark grid (Figs 7–8 × 3 policies × 4 queue budgets × 3
// capacities × 2 lookaheads = 144 points) the whole sweep — per-column
// analyses and the plan included — must average at most 5 allocations
// per grid point. Two things hold the number down: the grid's 144 points
// are 54 distinct (machine, effective config) executions, and a span's
// retained core.Runner replays them without round-tripping scratch
// through the machine's pool. An O(cycles) or O(cells) per-run
// regression multiplies by 54, and a plan that stops sharing by 144/54;
// either trips this (measured steady state: ~3.2 allocs/point, 471 a
// sweep; the budget is ~1.5× that).
func TestAllocGateSweepBatch(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are not meaningful under -race")
	}
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
	points := axes.Size(len(cases))
	run := func() {
		rep, err := systolic.Sweep(context.Background(), cases, axes, systolic.SweepOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Outcomes) != points {
			t.Fatalf("report has %d outcomes, want %d", len(rep.Outcomes), points)
		}
	}
	run() // warm (nothing persists across sweeps today, but keep the gate's shape uniform)
	perPoint := testing.AllocsPerRun(5, run) / float64(points)
	if perPoint > 5 {
		t.Errorf("planned sweep: %.2f allocs per grid point, budget 5", perPoint)
	}
}

// TestAllocGateParallel gates the sharded runner's steady state: a
// 4-shard run on an all-active 256-cell wavefront may spend a fixed
// extra budget per run (the run-scoped gang — goroutines, two
// channels — plus shard bookkeeping) but must stay flat in both the
// array size and the cycle count; per-cycle sink traffic has to reuse
// pooled buffers. The budget is ~3x the measured steady state (~30),
// mirroring the single-threaded gates above.
func TestAllocGateParallel(t *testing.T) {
	a := wideLinearWorkload(t, 256, 4)
	allocGate(t, "wide-linear-256/workers=4", 96, a, systolic.ExecOptions{Capacity: 2, Workers: 4})
	// Same machine, single-threaded through the same sharded code
	// path: must hold the original budget, proving the refactor did
	// not tax the Workers=1 hot path with allocations.
	allocGate(t, "wide-linear-256/workers=1", 48, a, systolic.ExecOptions{Capacity: 2})
}

// pipelinedSort builds the sorting-network family the analysis gates
// scale: cells and messages both grow with width.
func pipelinedSort(t *testing.T, width int) *systolic.Workload {
	t.Helper()
	w, err := systolic.PipelinedSortNetwork(systolic.PipelinedSortOptions{Width: width, Rounds: 4})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestAllocGateAnalyze gates the allocation count of one Analyze at a
// constant per cell and per message: routes and the Theorem 1 report
// own a few small slices per message (measured ~2.4 per cell+message
// on this network), and the crossing-off pass and the labeler
// allocate a fixed number of program-sized arrays. A second
// crossing-off pass, a per-cell map or a slice grown by append per
// class puts the count well above the budget.
func TestAllocGateAnalyze(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are not meaningful under -race")
	}
	w := pipelinedSort(t, 2000)
	budget := 3 * float64(w.Program.NumCells()+w.Program.NumMessages())
	got := testing.AllocsPerRun(3, func() {
		a, err := systolic.Analyze(w.Program, w.Topology, systolic.AnalyzeOptions{})
		if err != nil || !a.DeadlockFree {
			t.Fatalf("analyze: %v", err)
		}
	})
	if got > budget {
		t.Errorf("pipesort-2000: %v allocs per Analyze, budget %v (3 per cell and message)", got, budget)
	}
}

// TestAllocGateParse gates the front end's allocation count: one
// ParseDSL of the pipesort-2000 text may allocate at most 0.5 times per
// declaration (cell or message; measured 0.21 — one op slice per cell
// plus a fixed handful of tables — where the line-splitting parser
// spent 2.4), and the count must not follow the op count: twice the
// rounds is twice the ops and twice the messages per cell, yet the
// allocations, which are per cell, may grow by less than 10 %. A
// []string per line or per code line, or a slice grown per op, fails
// one or the other.
func TestAllocGateParse(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are not meaningful under -race")
	}
	parseAllocs := func(rounds int) (allocs float64, decls int) {
		w, err := systolic.PipelinedSortNetwork(systolic.PipelinedSortOptions{Width: 2000, Rounds: rounds})
		if err != nil {
			t.Fatal(err)
		}
		src := systolic.FormatDSL(w.Program, w.Topology)
		allocs = testing.AllocsPerRun(3, func() {
			p, _, err := systolic.ParseDSL(src)
			if err != nil || p.TotalOps() != w.Program.TotalOps() {
				t.Fatalf("parse: %v", err)
			}
		})
		return allocs, w.Program.NumCells() + w.Program.NumMessages()
	}
	base, decls := parseAllocs(4)
	if budget := 0.5 * float64(decls); base > budget {
		t.Errorf("pipesort-2000: %v allocs per ParseDSL, budget %v (0.5 per cell and message)", base, budget)
	}
	doubled, _ := parseAllocs(8)
	t.Logf("pipesort-2000: %v allocs per ParseDSL over %d declarations (%.2f each); %v at twice the rounds", base, decls, base/float64(decls), doubled)
	if doubled > 1.1*base {
		t.Errorf("pipesort-2000: %v allocs per ParseDSL at 8 rounds, %v at 4: allocations follow the op count", doubled, base)
	}
}

// TestAnalyzeScalesLinearly gates the shape of the analysis cost: a
// sorting network four times as wide may cost at most eight times as
// much to analyze (linear gives ~4x; the quadratic rule-1c scan this
// guards against gives ~16x or worse). Best of three on each side, so
// a scheduling hiccup on a shared runner does not decide it.
func TestAnalyzeScalesLinearly(t *testing.T) {
	if raceEnabled {
		t.Skip("timing ratios are not meaningful under -race")
	}
	best := func(width int) time.Duration {
		w := pipelinedSort(t, width)
		var min time.Duration
		for i := 0; i < 3; i++ {
			start := time.Now()
			a, err := systolic.Analyze(w.Program, w.Topology, systolic.AnalyzeOptions{})
			d := time.Since(start)
			if err != nil || !a.DeadlockFree {
				t.Fatalf("analyze width %d: %v", width, err)
			}
			if i == 0 || d < min {
				min = d
			}
		}
		return min
	}
	small, large := best(4000), best(16000)
	if large > 8*small {
		t.Errorf("Analyze: width 16000 took %v, width 4000 %v: ratio %.1f, want ≤ 8",
			large, small, float64(large)/float64(small))
	}
}
