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
	"fmt"
	"strings"
	"testing"

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
// analyses and the plan included — must average at most 2.37 allocations
// per grid point. Three things hold the number down: the grid's 144
// points are 54 distinct (machine, effective config) executions, a
// span's core.Runner replays them on one exec, and that exec comes from
// the process-wide pool warm and goes back when the span ends, so no
// span pays the exec's tables. An O(cycles) or O(cells) per-run
// regression multiplies by 54, a plan that stops sharing by 144/54, and
// scratch cached per machine or per span again costs a table set per
// span; each trips this (measured: 1.896 allocs/point once run scratch
// became the process's, 2.465 with an exec per span; the budget is
// 1.25× the first).
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
	run() // warm the process-wide exec pool
	perPoint := testing.AllocsPerRun(5, run) / float64(points)
	t.Logf("planned sweep: %.3f allocs per grid point", perPoint)
	if perPoint > 2.37 {
		t.Errorf("planned sweep: %.3f allocs per grid point, budget 2.37", perPoint)
	}
}

// TestAllocGateParallel gates a run with every ready set busy: an
// all-active 256-cell wavefront holds the budget of the gates above, so
// per-cycle set traffic allocates nothing — also with the deprecated
// Workers field set, which is ignored and must cost nothing.
func TestAllocGateParallel(t *testing.T) {
	a := wideLinearWorkload(t, 256, 4)
	allocGate(t, "wide-linear-256", 48, a, systolic.ExecOptions{Capacity: 2})
	allocGate(t, "wide-linear-256/workers=4", 48, a, systolic.ExecOptions{Capacity: 2, Workers: 4})
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
// constant on every path: strict and lookahead, the greedy §6 labeling
// and the order-based fallback. Every table the analysis builds —
// routes, the crossing-off state, the labeler's index, the fallback's
// constraint graph, the Theorem 1 report — is a fixed number of arrays
// sized from the program, so a program of any size costs the same few
// dozen allocations. The sorting network labels greedily; the
// generated programs are cold-pipeline's recipe, whose greedy labeling
// falls back on every seed. Measured: pipesort 35 to 36 at width 2000
// and 4000, 52 under lookahead; generated 49 strict and 70 lookahead at
// 64 messages, 49 and 73 at 128. A skip list kept per candidate, a warning
// formatted and thrown away, an edge list grown by append, a route or a
// hop list allocated per message, or a pick order kept that nobody
// reads puts the count in the hundreds or thousands: the generated
// programs took 346 and 959 allocations at 64 messages, 683 and 2 338
// at 128, before the analysis built only what its callers read.
func TestAllocGateAnalyze(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are not meaningful under -race")
	}
	analyzeAllocs := func(p *systolic.Program, topo systolic.Topology, opts systolic.AnalyzeOptions) float64 {
		return testing.AllocsPerRun(3, func() {
			a, err := systolic.Analyze(p, topo, opts)
			if err != nil || !a.DeadlockFree {
				t.Fatalf("analyze: %v", err)
			}
		})
	}
	lookahead := systolic.AnalyzeOptions{Lookahead: true, Capacity: 2}
	gate := func(name string, base, doubled float64) {
		t.Helper()
		t.Logf("%s: %v allocs per Analyze, %v at twice the size", name, base, doubled)
		if base > 96 {
			t.Errorf("%s: %v allocs per Analyze, budget 96", name, base)
		}
		if doubled > 1.1*base {
			t.Errorf("%s: %v allocs per Analyze at twice the size against %v: allocations follow the program's size", name, doubled, base)
		}
	}
	for _, opts := range []systolic.AnalyzeOptions{{}, lookahead} {
		allocs := func(width int) float64 {
			w := pipelinedSort(t, width)
			return analyzeAllocs(w.Program, w.Topology, opts)
		}
		gate(fmt.Sprintf("pipesort, lookahead %v", opts.Lookahead), allocs(2000), allocs(4000))
	}
	for _, opts := range []systolic.AnalyzeOptions{{}, lookahead} {
		allocs := func(messages int) float64 {
			sc, err := systolic.GenerateProgram(2, systolic.GenOptions{
				Cells: 32, Messages: messages, MaxWords: 4, Interleave: 4, Cyclic: true, Topology: systolic.GenTopoMesh,
			})
			if err != nil {
				t.Fatal(err)
			}
			a, err := systolic.Analyze(sc.Program, sc.Topology, opts)
			if err != nil || !a.DeadlockFree {
				t.Fatalf("analyze: %v", err)
			}
			if n := len(a.Labeling.Warnings); n == 0 || !strings.Contains(a.Labeling.Warnings[n-1], "fell back") {
				t.Fatalf("generated program at %d messages labeled greedily: the gate wants the fallback", messages)
			}
			return analyzeAllocs(sc.Program, sc.Topology, opts)
		}
		gate(fmt.Sprintf("generated, lookahead %v", opts.Lookahead), allocs(64), allocs(128))
	}
}

// TestAllocGateParse gates the front end's allocation count: one
// ParseDSL of the pipesort-2000 text may allocate at most 0.05 times per
// declaration (cell or message; measured 0.011 — the code is one array
// and every table is sized up front, so what is left is the name maps'
// own tables and the topology), and the count must not follow the op
// count: twice the rounds is twice the ops and twice the messages, and
// may cost 0.01 allocations per added declaration (the message-name
// map's extra tables; measured 0.004). A []string per line, an op slice
// per cell or per code line, or a slice grown per op, fails one or the
// other.
func TestAllocGateParse(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation gates are not meaningful under -race")
	}
	parseAllocs := func(rounds int) (allocs, decls float64) {
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
		return allocs, float64(w.Program.NumCells() + w.Program.NumMessages())
	}
	base, decls := parseAllocs(4)
	if budget := 0.05 * decls; base > budget {
		t.Errorf("pipesort-2000: %v allocs per ParseDSL, budget %v (0.05 per cell and message)", base, budget)
	}
	doubled, declsDoubled := parseAllocs(8)
	t.Logf("pipesort-2000: %v allocs per ParseDSL over %v declarations (%.3f each); %v over %v at twice the rounds", base, decls, base/decls, doubled, declsDoubled)
	if budget := base + 0.01*(declsDoubled-decls); doubled > budget {
		t.Errorf("pipesort-2000: %v allocs per ParseDSL at 8 rounds, %v at 4, budget %v: allocations follow the op count", doubled, base, budget)
	}
}
