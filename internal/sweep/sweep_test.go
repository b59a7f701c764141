package sweep

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"systolic/internal/core"
	"systolic/internal/fault"
	"systolic/internal/gen"
	"systolic/internal/model"
	"systolic/internal/topology"
	"systolic/internal/workload"
)

// familyWorkload mirrors the oracle's family knob (internal/diff
// fuzzScenario): sizes derive from the seed the same way, so corpus
// entries replay the exact operator graph the fuzzer exercised.
// Returns nil when the derived sizes are impossible.
func familyWorkload(seed int64, family uint8) *workload.Workload {
	mod := func(m uint64) int { return int(uint64(seed) % m) }
	var w *workload.Workload
	var err error
	switch family {
	case 1:
		w, err = workload.Attention(workload.AttentionOptions{Tokens: 2 + mod(9), Experts: 1 + mod(4)})
	case 2:
		w, err = workload.Stencil(workload.StencilOptions{Rows: 2 + mod(3), Cols: 2 + mod(4), Iters: 1 + mod(3)})
	case 3:
		w, err = workload.FFT(workload.FFTOptions{LogN: 1 + mod(4)})
	case 4:
		w, err = workload.PipelinedSort(workload.PipelinedSortOptions{Width: 2 + mod(10), Rounds: 1 + mod(6)})
	default:
		return nil
	}
	if err != nil {
		return nil
	}
	return w
}

func testCases() []Case {
	f7 := workload.Fig7(workload.Fig7Options{})
	f8 := workload.Fig8()
	return []Case{
		{Name: "fig7", Program: f7.Program, Topology: f7.Topology},
		{Name: "fig8", Program: f8.Program, Topology: f8.Topology},
	}
}

// TestDeterministicAcrossWorkers is the acceptance criterion: the same
// grid and seed produce a byte-identical report with 1 worker and with
// runtime.NumCPU() workers, over ≥ 100 configurations.
func TestDeterministicAcrossWorkers(t *testing.T) {
	cases := testCases()
	axes := Axes{
		Policies:   []core.PolicyKind{core.NaiveFCFS, core.NaiveRandom, core.StaticAssignment, core.DynamicCompatible},
		Queues:     []int{0, 1, 2, 3},
		Capacities: []int{1, 2},
		Lookaheads: []int{0, 2},
		Seed:       7,
	}
	if n := axes.Size(len(cases)); n < 100 {
		t.Fatalf("grid has %d configurations, want ≥ 100", n)
	}
	seq, err := Run(context.Background(), cases, axes, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(context.Background(), cases, axes, Options{Workers: runtime.NumCPU()})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("1-worker and NumCPU-worker reports differ")
	}
	if seq.Table() != par.Table() {
		t.Fatal("rendered tables differ across worker counts")
	}
	if len(seq.Outcomes) != axes.Size(len(cases)) {
		t.Fatalf("report has %d outcomes, want %d", len(seq.Outcomes), axes.Size(len(cases)))
	}
}

// TestSweepFindsFig7Deadlock checks the engine reproduces §4: FCFS
// with one queue per link deadlocks Fig 7, the compatible policy never
// deadlocks at its Theorem 1 budget, and the safe-budget summary
// reports it.
func TestSweepFindsFig7Deadlock(t *testing.T) {
	cases := testCases()
	rep, err := Run(context.Background(), cases, Axes{}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var fcfsDeadlock, compatibleDeadlock bool
	for _, o := range rep.Outcomes {
		if o.CaseName != "fig7" {
			continue
		}
		if o.Policy == core.NaiveFCFS && o.QueuesUsed == 1 && o.deadlocked() {
			fcfsDeadlock = true
		}
		if o.Policy == core.DynamicCompatible && o.Queues == 0 && o.Result != "completed" {
			compatibleDeadlock = true
		}
	}
	if !fcfsDeadlock {
		t.Error("fig7 under FCFS with 1 queue/link did not deadlock")
	}
	if compatibleDeadlock {
		t.Error("fig7 under compatible assignment at the analysis minimum failed")
	}
	if _, ok := rep.SafeBudgets(core.DynamicCompatible)["fig7"]; !ok {
		t.Error("no safe compatible budget reported for fig7")
	}
	if len(rep.Deadlocked()) == 0 {
		t.Error("sweep over Figs 7–8 found no deadlocks at all")
	}
	if !strings.Contains(rep.Table(), "deadlocked") {
		t.Error("table does not mention deadlocks")
	}
}

// TestCancellation checks a cancelled context abandons the sweep
// promptly with ctx.Err().
func TestCancellation(t *testing.T) {
	cases := testCases()
	axes := Axes{Queues: []int{1, 2, 3, 4, 5, 6, 7, 8}}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, cases, axes, Options{Workers: 2}); err != context.Canceled {
		t.Fatalf("pre-cancelled sweep returned %v, want context.Canceled", err)
	}

	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel2()
	start := time.Now()
	_, err := Run(ctx2, cases, axes, Options{Workers: 1})
	if err != nil && err != context.DeadlineExceeded {
		t.Fatalf("timed-out sweep returned %v", err)
	}
	// err == nil is possible if the whole grid beat the deadline; only
	// a hang is a failure.
	if time.Since(start) > 30*time.Second {
		t.Fatal("cancelled sweep did not return promptly")
	}
}

// TestRejectedAndAutoBudget checks analysis-rejected grid points are
// reported (not run) and auto budgets resolve to the analysis minimum.
func TestRejectedAndAutoBudget(t *testing.T) {
	p1 := workload.Fig5P1()
	cases := []Case{{Name: "p1", Program: p1.Program, Topology: p1.Topology}}
	axes := Axes{
		Policies:   []core.PolicyKind{core.DynamicCompatible},
		Queues:     []int{0},
		Capacities: []int{2},
		Lookaheads: []int{0, 2},
	}
	rep, err := Run(context.Background(), cases, axes, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Outcomes) != 2 {
		t.Fatalf("got %d outcomes, want 2", len(rep.Outcomes))
	}
	strict, la := rep.Outcomes[0], rep.Outcomes[1]
	if strict.Result != "rejected" || strict.DeadlockFree {
		t.Errorf("strict P1 = %q (deadlock-free=%v), want rejected", strict.Result, strict.DeadlockFree)
	}
	if la.Result != "completed" {
		t.Errorf("lookahead-2 P1 = %q, want completed", la.Result)
	}
	if la.QueuesUsed < 1 {
		t.Errorf("auto budget resolved to %d", la.QueuesUsed)
	}
}

// TestValidation covers the configuration errors.
func TestValidation(t *testing.T) {
	if _, err := Run(context.Background(), nil, Axes{}, Options{}); err == nil {
		t.Error("empty case list accepted")
	}
	cases := testCases()
	if _, err := Run(context.Background(), cases, Axes{Capacities: []int{0}}, Options{}); err == nil {
		t.Error("capacity 0 accepted")
	}
	if _, err := Run(context.Background(), cases, Axes{Queues: []int{-1}}, Options{}); err == nil {
		t.Error("negative queue budget accepted")
	}
	if _, err := Run(context.Background(), cases, Axes{Lookaheads: []int{-1}}, Options{}); err == nil {
		t.Error("negative lookahead budget accepted")
	}
	if _, err := Run(context.Background(), []Case{{Name: "nil"}}, Axes{}, Options{}); err == nil {
		t.Error("nil program accepted")
	}
}

// countingTopology wraps a Topology and counts Route invocations —
// every analysis pass routes each message, so the count exposes how
// many times Analyze ran behind a sweep.
type countingTopology struct {
	topology.Topology
	calls *int
}

func (c countingTopology) Route(from, to model.CellID) ([]topology.Hop, error) {
	*c.calls++
	return c.Topology.Route(from, to)
}

// TestAnalysisMemoizedAcrossGrid: growing the policy × queues ×
// capacity axes must not grow the number of Analyze passes (and hence
// machine compiles) — one per (case, lookahead), shared by the whole
// grid.
func TestAnalysisMemoizedAcrossGrid(t *testing.T) {
	countCalls := func(axes Axes) int {
		calls := 0
		f7 := workload.Fig7(workload.Fig7Options{})
		cases := []Case{{
			Name:     "fig7",
			Program:  f7.Program,
			Topology: countingTopology{Topology: f7.Topology, calls: &calls},
		}}
		if _, err := Run(context.Background(), cases, axes, Options{Workers: 1}); err != nil {
			t.Fatal(err)
		}
		return calls
	}
	lookaheads := []int{0, 2}
	small := countCalls(Axes{
		Policies:   []core.PolicyKind{core.NaiveFCFS},
		Queues:     []int{1},
		Capacities: []int{1},
		Lookaheads: lookaheads,
		Seed:       1,
	})
	large := countCalls(Axes{
		Policies:   []core.PolicyKind{core.NaiveFCFS, core.StaticAssignment, core.DynamicCompatible},
		Queues:     []int{0, 1, 2, 3},
		Capacities: []int{1, 2, 4},
		Lookaheads: lookaheads,
		Seed:       1,
	})
	if small == 0 {
		t.Fatal("counting topology never consulted")
	}
	if large != small {
		t.Fatalf("route computations grew with the grid: %d (1-point axes) vs %d (36-point axes); analysis not memoized", small, large)
	}
}

// TestOnOutcomeReportsEveryGridPoint pins the streaming hook's
// contract: every grid point is reported exactly once, tagged with its
// enumeration index, carrying the same outcome the final report holds
// at that index — so a consumer re-sorting by index reconstructs the
// order-stable report byte-for-byte.
func TestOnOutcomeReportsEveryGridPoint(t *testing.T) {
	cases := testCases()
	axes := Axes{
		Policies:   []core.PolicyKind{core.NaiveFCFS, core.DynamicCompatible},
		Queues:     []int{1, 2},
		Capacities: []int{1},
		Lookaheads: []int{0},
		Seed:       1,
	}
	var mu sync.Mutex
	got := make(map[int]Outcome)
	rep, err := Run(context.Background(), cases, axes, Options{
		Workers: 4,
		OnOutcome: func(i int, o Outcome) {
			mu.Lock()
			defer mu.Unlock()
			if _, dup := got[i]; dup {
				t.Errorf("grid point %d reported twice", i)
			}
			got[i] = o
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(rep.Outcomes) {
		t.Fatalf("callback saw %d grid points, report has %d", len(got), len(rep.Outcomes))
	}
	for i, want := range rep.Outcomes {
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("callback outcome %d diverges from the report:\n%+v\nvs\n%+v", i, got[i], want)
		}
	}
}

// TestAnalysisProviderBypassesEngineAnalyze: with Options.Analysis
// installed, the engine must never route messages itself — the
// provider's analyses power the whole grid, and provider errors
// surface per grid point like in-engine analysis failures.
func TestAnalysisProviderBypassesEngineAnalyze(t *testing.T) {
	calls := 0
	f7 := workload.Fig7(workload.Fig7Options{})
	cases := []Case{{
		Name:     "fig7",
		Program:  f7.Program,
		Topology: countingTopology{Topology: f7.Topology, calls: &calls},
	}}
	pre, err := analyze(Case{Name: "fig7", Program: f7.Program, Topology: f7.Topology}, 0)
	if err != nil {
		t.Fatal(err)
	}
	calls = 0
	axes := Axes{
		Policies:   []core.PolicyKind{core.DynamicCompatible},
		Queues:     []int{0, 1},
		Capacities: []int{1},
		Lookaheads: []int{0},
		Seed:       1,
	}
	providerCalls := 0
	rep, err := Run(context.Background(), cases, axes, Options{
		Workers: 1,
		Analysis: func(caseIdx, lookahead int) (*core.Analysis, error) {
			providerCalls++
			if caseIdx != 0 || lookahead != 0 {
				t.Errorf("provider asked for (%d, %d), want (0, 0)", caseIdx, lookahead)
			}
			return pre, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Fatalf("engine routed %d messages despite the provider", calls)
	}
	if providerCalls != 1 {
		t.Fatalf("provider called %d times, want once per (case, lookahead)", providerCalls)
	}
	for _, o := range rep.Outcomes {
		if o.Result != "completed" {
			t.Fatalf("provider-powered grid point failed: %+v", o)
		}
	}

	if _, err := Run(context.Background(), cases, axes, Options{
		Analysis: func(int, int) (*core.Analysis, error) {
			return nil, fmt.Errorf("boom")
		},
	}); err != nil {
		t.Fatalf("provider error must surface per grid point, not fail the run: %v", err)
	}
}

// fuzzCorpusCases rebuilds the differential oracle's checked-in fuzz
// corpus (seed, mutations, cyclic triples in go-fuzz v1 encoding) into
// sweep cases, so the equivalence suite below replays exactly the
// programs the fuzzer found interesting — every topology family,
// cyclic flow, and mutated (deadlocking) programs.
func fuzzCorpusCases(t *testing.T) []Case {
	t.Helper()
	dir := filepath.Join("..", "diff", "testdata", "fuzz", "FuzzOracle")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading fuzz corpus: %v", err)
	}
	var cases []Case
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("reading corpus entry %s: %v", e.Name(), err)
		}
		lines := strings.Split(strings.TrimSpace(string(data)), "\n")
		// Layout: header, int64 seed, byte mutations, bool cyclic,
		// byte family, byte fault class (the class knob only matters
		// to the oracle's degraded checks, not to case construction).
		if len(lines) != 6 || lines[0] != "go test fuzz v1" {
			t.Fatalf("corpus entry %s: unexpected layout %q", e.Name(), lines)
		}
		var seed int64
		var mutations, family uint8
		if _, err := fmt.Sscanf(lines[1], "int64(%d)", &seed); err != nil {
			t.Fatalf("corpus entry %s: %v", e.Name(), err)
		}
		if _, err := fmt.Sscanf(lines[2], "byte(0x%x)", &mutations); err != nil {
			t.Fatalf("corpus entry %s: %v", e.Name(), err)
		}
		cyclic := strings.Contains(lines[3], "true")
		if _, err := fmt.Sscanf(lines[4], "byte(0x%x)", &family); err != nil {
			t.Fatalf("corpus entry %s: %v", e.Name(), err)
		}
		if family%5 != 0 {
			// Workload-family entries: the generated operator graphs
			// (attention, stencil, FFT, pipelined sort), mirroring the
			// oracle's family knob so the batched driver replays them.
			w := familyWorkload(seed, family%5)
			if w == nil {
				continue
			}
			cases = append(cases, Case{Name: "corpus/" + e.Name(), Program: w.Program, Topology: w.Topology})
			continue
		}
		sc, err := gen.Generate(seed, gen.Options{Mutations: int(mutations % 8), Cyclic: cyclic})
		if err != nil {
			continue // impossible knobs, same as the fuzz target's skip
		}
		cases = append(cases, Case{Name: "corpus/" + e.Name(), Program: sc.Program, Topology: sc.Topology})
	}
	if len(cases) == 0 {
		t.Fatal("fuzz corpus produced no cases")
	}
	return cases
}

// generatedCases derives n scenarios from consecutive seeds, mixing
// acyclic and cyclic flow and mutation counts, as broad-coverage input
// for the batched-vs-per-point equivalence suite.
func generatedCases(t *testing.T, n int) []Case {
	t.Helper()
	cases := make([]Case, 0, n)
	for seed := int64(1); len(cases) < n; seed++ {
		sc, err := gen.Generate(seed, gen.Options{Mutations: int(seed % 5), Cyclic: seed%2 == 0})
		if err != nil {
			continue
		}
		cases = append(cases, Case{
			Name:     fmt.Sprintf("gen-%d/%s", seed, sc.Name),
			Program:  sc.Program,
			Topology: sc.Topology,
		})
	}
	return cases
}

// TestBatchedMatchesPerPoint is the batched driver's acceptance
// criterion: for every grid — the oracle's fuzz corpus plus 200
// generated scenarios, spanning completed, deadlocked, rejected, and
// auto-budget points — the column-batched driver (retained core.Runner
// per span) and the per-point baseline (core.Execute against the
// process-wide scratch pool) produce byte-identical reports, at 1 sweep
// worker and at 4.
func TestBatchedMatchesPerPoint(t *testing.T) {
	scenarios := 200
	if testing.Short() {
		scenarios = 40
	}
	cases := append(fuzzCorpusCases(t), generatedCases(t, scenarios)...)
	axes := Axes{
		Policies:   []core.PolicyKind{core.NaiveFCFS, core.StaticAssignment, core.DynamicCompatible},
		Queues:     []int{0, 2},
		Capacities: []int{1},
		Lookaheads: []int{0, 2},
		Seed:       11,
	}
	for _, workers := range []int{1, 4} {
		batched, err := Run(context.Background(), cases, axes, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d batched: %v", workers, err)
		}
		perPoint, err := Run(context.Background(), cases, axes, Options{Workers: workers, PerPoint: true})
		if err != nil {
			t.Fatalf("workers=%d per-point: %v", workers, err)
		}
		if !reflect.DeepEqual(batched, perPoint) {
			for i := range batched.Outcomes {
				if !reflect.DeepEqual(batched.Outcomes[i], perPoint.Outcomes[i]) {
					t.Fatalf("workers=%d: grid point %d diverges:\nbatched:   %+v\nper-point: %+v",
						workers, i, batched.Outcomes[i], perPoint.Outcomes[i])
				}
			}
			t.Fatalf("workers=%d: reports diverge outside the outcome list", workers)
		}
	}
}

// TestBatchedMatchesPerPointFaulted extends the acceptance criterion
// to degraded arrays: under a fault plan of every class — periodic
// cell slowdown, dead cell, throttled link, severed link — the
// batched driver and the per-point baseline must still be
// byte-identical at 1 sweep worker and at 4. Cell 0 and link 0 exist
// in every case, so the plans fit the whole grid.
func TestBatchedMatchesPerPointFaulted(t *testing.T) {
	scenarios := 60
	if testing.Short() {
		scenarios = 20
	}
	cases := append(fuzzCorpusCases(t), generatedCases(t, scenarios)...)
	axes := Axes{
		Policies:   []core.PolicyKind{core.NaiveFCFS, core.DynamicCompatible},
		Queues:     []int{0, 2},
		Capacities: []int{1},
		Lookaheads: []int{0},
		Seed:       11,
	}
	plans := []struct {
		name string
		spec string
	}{
		{"periodic", "cell:0:slow=2,link:0:slow=3@5"},
		{"terminal", "cell:0:dead@6,link:0:sever@9"},
	}
	for _, pl := range plans {
		plan, err := fault.ParseSpec(pl.spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 4} {
			opts := Options{Workers: workers, Faults: plan}
			batched, err := Run(context.Background(), cases, axes, opts)
			if err != nil {
				t.Fatalf("%s workers=%d batched: %v", pl.name, workers, err)
			}
			opts.PerPoint = true
			perPoint, err := Run(context.Background(), cases, axes, opts)
			if err != nil {
				t.Fatalf("%s workers=%d per-point: %v", pl.name, workers, err)
			}
			if !reflect.DeepEqual(batched, perPoint) {
				for i := range batched.Outcomes {
					if !reflect.DeepEqual(batched.Outcomes[i], perPoint.Outcomes[i]) {
						t.Fatalf("%s workers=%d: grid point %d diverges:\nbatched:   %+v\nper-point: %+v",
							pl.name, workers, i, batched.Outcomes[i], perPoint.Outcomes[i])
					}
				}
				t.Fatalf("%s workers=%d: reports diverge outside the outcome list", pl.name, workers)
			}
		}
	}
}

// TestRunOneObservesContext is the regression test for the sysvet
// ctxloop finding that grid points ran detached from the sweep's
// context: runOne built core.ExecOptions without Context, so a
// cancelled caller (a dropped /v1/sweep client) only stopped
// unstarted grid points while every in-flight simulation ran to
// completion. The context must now reach the machine itself.
func TestRunOneObservesContext(t *testing.T) {
	cases := testCases()
	a, aerr := analyze(cases[0], 0)
	if aerr != nil {
		t.Fatal(aerr)
	}
	g := &grid{
		cases:   cases,
		configs: []Config{{Case: 0, Policy: core.DynamicCompatible, Capacity: 1, Seed: 1}},
		cols:    []column{{a: a}},
		block:   1,
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := g.runOne(ctx, 0, nil)
	if o.Result != "error" || !strings.Contains(o.Err, "cancelled") {
		t.Fatalf("runOne under a cancelled ctx returned %q (err %q); want the cancellation to reach the machine", o.Result, o.Err)
	}

	if got := g.runOne(context.Background(), 0, nil); got.Result != "completed" {
		t.Fatalf("runOne under a live ctx returned %q (err %q), want completed", got.Result, got.Err)
	}
}

// TestWithDefaultsAllocatesNothing: WithDefaults fills empty axes from
// the package's read-only defaults, and Size calls it, so neither
// allocates, whether every axis is empty or every axis is set; the
// serving layer resolves a request's axes five times. DefaultAxes still
// hands out slices a caller may edit.
func TestWithDefaultsAllocatesNothing(t *testing.T) {
	full := Axes{
		Policies:   []core.PolicyKind{core.NaiveFCFS},
		Queues:     []int{1, 2},
		Capacities: []int{3},
		Lookaheads: []int{0, 4},
		LinkModels: []string{"", "fixed,delay=3"},
	}
	for _, tc := range []struct {
		name string
		axes Axes
		size int
	}{{"empty", Axes{}, 2 * 3 * 4 * 2 * 2}, {"full", full, 2 * 1 * 2 * 1 * 2 * 2}} {
		var size int
		if n := testing.AllocsPerRun(100, func() { size = tc.axes.WithDefaults().Size(2) }); n != 0 {
			t.Errorf("%s axes: WithDefaults and Size allocate %v times", tc.name, n)
		}
		if size != tc.size {
			t.Errorf("%s axes: Size(2) = %d, want %d", tc.name, size, tc.size)
		}
	}
	d := DefaultAxes()
	d.Queues[0], d.Policies[0], d.LinkModels[0] = 99, core.NaiveLIFO, "fixed,delay=9"
	if got := (Axes{}).WithDefaults(); got.Queues[0] != 0 || got.Policies[0] != core.NaiveFCFS || got.LinkModels[0] != "" {
		t.Fatalf("editing DefaultAxes' slices changed the defaults: %+v", got)
	}
	if !reflect.DeepEqual(DefaultAxes(), (Axes{Seed: 1}).WithDefaults()) {
		t.Fatalf("DefaultAxes %+v differs from the resolved empty axes", DefaultAxes())
	}
}
