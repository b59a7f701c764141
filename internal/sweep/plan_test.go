package sweep

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unicode/utf8"

	"systolic/internal/core"
	"systolic/internal/fault"
	"systolic/internal/gen"
	"systolic/internal/model"
	"systolic/internal/topology"
	"systolic/internal/workload"
)

// counted runs one sweep with the execution counter installed.
func counted(t *testing.T, cases []Case, axes Axes, opts Options) (*Report, int) {
	t.Helper()
	var n atomic.Int64
	opts.executions = &n
	rep, err := Run(context.Background(), cases, axes, opts)
	if err != nil {
		t.Fatal(err)
	}
	return rep, int(n.Load())
}

// committedGrids rebuilds the two grids of tools/sweeprun/testdata
// (smoke.json, whose axes are DefaultAxes, and topology.json) — the
// grids one tools/perf sweep-grid op runs.
func committedGrids(t *testing.T) (smoke []Case, topo []Case, topoAxes Axes) {
	t.Helper()
	must := func(w *workload.Workload, err error) *workload.Workload {
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	fft := must(workload.FFT(workload.FFTOptions{LogN: 3}))
	g23, err := gen.Generate(23, gen.Options{Mutations: 1, Cyclic: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []struct {
		name string
		w    *workload.Workload
	}{
		{"fig7", workload.Fig7(workload.Fig7Options{})},
		{"fig8", workload.Fig8()},
		{"attention", must(workload.Attention(workload.AttentionOptions{Tokens: 6, Experts: 3}))},
		{"stencil", must(workload.Stencil(workload.StencilOptions{Rows: 3, Cols: 3, Iters: 2}))},
		{"fft", fft},
		{"sortnet", must(workload.PipelinedSort(workload.PipelinedSortOptions{Width: 8, Rounds: 4}))},
	} {
		smoke = append(smoke, Case{Name: w.name, Program: w.w.Program, Topology: w.w.Topology})
	}
	smoke = append(smoke, Case{Name: "gen-23", Program: g23.Program, Topology: g23.Topology})
	topo = []Case{
		{Name: "fft@mesh", Program: fft.Program, Topology: topology.Mesh2D(2, 4)},
		{Name: "fft@torus2d", Program: fft.Program, Topology: topology.Torus2D(2, 4)},
		{Name: "fft@hypercube", Program: fft.Program, Topology: topology.Hypercube(3)},
	}
	topoAxes = Axes{
		Policies: []core.PolicyKind{core.NaiveFCFS, core.DynamicCompatible}, Queues: []int{0, 2},
		Capacities: []int{1}, Lookaheads: []int{0},
		LinkModels: []string{"", "fixed,delay=3", "congestion,delay=1,threshold=2,max=4"}, Seed: 1,
	}
	return smoke, topo, topoAxes
}

// TestSweepRunsDistinctPointsOnce pins what planning saves on the two
// committed grids: the smoke grid's 336 points are 134 distinct
// (machine, effective config) executions — queues 0 resolves onto the
// axis, and no case's lookahead-2 analysis differs from its strict one —
// while the topology grid has nothing to share. PerPoint runs every
// point. The counts are clock-free and exact.
func TestSweepRunsDistinctPointsOnce(t *testing.T) {
	smoke, topo, topoAxes := committedGrids(t)
	for _, g := range []struct {
		name            string
		cases           []Case
		axes            Axes
		points, planned int
	}{
		{"smoke", smoke, DefaultAxes(), 336, 134},
		{"topology", topo, topoAxes, 36, 36},
	} {
		for _, workers := range []int{1, 2} {
			rep, n := counted(t, g.cases, g.axes, Options{Workers: workers})
			if len(rep.Outcomes) != g.points || n != g.planned {
				t.Errorf("%s workers=%d: %d executions for %d points, want %d for %d", g.name, workers, n, len(rep.Outcomes), g.planned, g.points)
			}
			per, n := counted(t, g.cases, g.axes, Options{Workers: workers, PerPoint: true})
			if n != g.points {
				t.Errorf("%s workers=%d: per-point driver made %d executions, want one per point (%d)", g.name, workers, n, g.points)
			}
			if !reflect.DeepEqual(rep, per) {
				t.Errorf("%s workers=%d: planned and per-point reports differ", g.name, workers)
			}
		}
	}
}

// section8Case is the program recipe of internal/core/section8_test.go
// (a small gen program with a few adjacent-op swaps, on the complete
// graph so that every route is one hop): seeds land across strictly
// fine, buffering-fixable and deadlocked.
func section8Case(t *testing.T, seed int64) Case {
	t.Helper()
	rng := rand.New(rand.NewSource(seed + 5000))
	cells, msgs := 2+rng.Intn(3), 2+rng.Intn(4)
	sc, err := gen.Generate(seed, gen.Options{
		Cells: cells, Messages: msgs, MaxWords: 3, Interleave: msgs,
		Cyclic: true, Mutations: 1 + rng.Intn(6), Topology: gen.TopoLinear,
	})
	if err != nil {
		t.Fatal(err)
	}
	var edges [][2]model.CellID
	for a := 0; a < cells; a++ {
		for b := a + 1; b < cells; b++ {
			edges = append(edges, [2]model.CellID{model.CellID(a), model.CellID(b)})
		}
	}
	return Case{Name: fmt.Sprintf("s8-%d", seed), Program: sc.Program, Topology: topology.Graph(cells, edges)}
}

// TestClassesSplitOnLabels: columns merge only when the analyses say
// so. Seed 1 of the §8 recipe is rejected by strict analysis and
// admitted at lookahead 2; seed 36 is admitted by both with different
// dense labels ([3 2 3 1] against [2 1 2 1]). Neither pair may share
// a machine: the strict column of the first runs nothing, and the second
// runs every distinct configuration once per lookahead, with reports
// equal to the per-point driver's.
func TestClassesSplitOnLabels(t *testing.T) {
	axes := Axes{
		Policies:   []core.PolicyKind{core.NaiveFCFS, core.DynamicCompatible},
		Queues:     []int{1, 2},
		Capacities: []int{2},
		Lookaheads: []int{0, 2},
		Seed:       1,
	}
	rejected, relabeled := section8Case(t, 1), section8Case(t, 36)
	for _, c := range []Case{rejected, relabeled} {
		a0, err0 := analyze(c, 0)
		a2, err2 := analyze(c, 2)
		if err0 != nil || err2 != nil {
			t.Fatal(err0, err2)
		}
		if !a2.DeadlockFree || a0.DeadlockFree != (c.Name == relabeled.Name) {
			t.Fatalf("%s: strict deadlock-free=%v, lookahead-2 %v; the recipe drifted", c.Name, a0.DeadlockFree, a2.DeadlockFree)
		}
		if a0.DeadlockFree && a0.SameMachine(a2) {
			t.Fatalf("%s: strict and lookahead-2 analyses agree (%v); the recipe drifted", c.Name, a0.Labeling.Dense)
		}
		want := 4 // one column's four distinct points
		if a0.DeadlockFree {
			want = 8
		}
		rep, n := counted(t, []Case{c}, axes, Options{Workers: 2})
		if n != want {
			t.Errorf("%s: %d executions, want %d (lookahead columns must not share a machine)", c.Name, n, want)
		}
		per, _ := counted(t, []Case{c}, axes, Options{Workers: 2, PerPoint: true})
		if !reflect.DeepEqual(rep, per) {
			t.Errorf("%s: planned and per-point reports differ:\n%s\nvs\n%s", c.Name, rep.Table(), per.Table())
		}
		for _, o := range rep.Outcomes[:4] {
			if !a0.DeadlockFree && o.Result != "rejected" {
				t.Errorf("%s: strict point %+v, want rejected", c.Name, o)
			}
		}
	}
	// The same program twice, once per lookahead that changes nothing,
	// does merge: Fig 7's two columns are one class.
	f7 := testCases()[:1]
	if _, n := counted(t, f7, axes, Options{}); n != 4 {
		t.Errorf("fig7: %d executions, want 4 (its lookahead-2 analysis equals the strict one)", n)
	}
}

// pick draws 1..max values from pool, repeats allowed.
func pick[T any](rng *rand.Rand, pool []T, max int) []T {
	out := make([]T, 1+rng.Intn(max))
	for i := range out {
		out[i] = pool[rng.Intn(len(pool))]
	}
	return out
}

// TestPlannedMatchesPerPointRandomAxes is the planner's property test:
// over seeded random grids built to collide — repeated queue budgets, 0
// next to the value it resolves to, repeated capacities, lookaheads and
// link-model specs, a randomized policy, fault plans, cases whose
// lookahead columns merge, split and get rejected — the planned driver's
// report equals the per-point driver's outcome by outcome at 1, 2 and 7
// workers, and OnOutcome delivers every index exactly once carrying the
// report's value. Run under -race in CI.
func TestPlannedMatchesPerPointRandomAxes(t *testing.T) {
	pool := append(testCases(), section8Case(t, 0), section8Case(t, 1), section8Case(t, 36))
	pool = append(pool, generatedCases(t, 6)...)
	p1 := workload.Fig5P1()
	pool = append(pool, Case{Name: "p1", Program: p1.Program, Topology: p1.Topology})
	plan, err := fault.ParseSpec("cell:0:slow=2,link:0:slow=3@5")
	if err != nil {
		t.Fatal(err)
	}
	policies := []core.PolicyKind{core.NaiveFCFS, core.NaiveRandom, core.StaticAssignment, core.DynamicCompatible, core.NaiveLIFO}
	specs := []string{"", "", "fixed,delay=3", "fixed,delay=3", "congestion,delay=1,threshold=2,max=4"}
	grids := 40
	if testing.Short() {
		grids = 12
	}
	for seed := int64(1); seed <= int64(grids); seed++ {
		rng := rand.New(rand.NewSource(seed))
		cases := pick(rng, pool, 3)
		axes := Axes{
			Policies:   pick(rng, policies, 3),
			Queues:     pick(rng, []int{0, 0, 1, 2, 3}, 5),
			Capacities: pick(rng, []int{1, 2, 2}, 2),
			Lookaheads: pick(rng, []int{0, 0, 1, 2}, 3),
			LinkModels: pick(rng, specs, 3),
			Seed:       seed,
		}
		opts := Options{PerPoint: true, Workers: 2}
		if seed%3 == 0 {
			opts.Faults = plan
		}
		want, err := Run(context.Background(), cases, axes, opts)
		if err != nil {
			t.Fatalf("seed %d per-point: %v", seed, err)
		}
		opts.PerPoint = false
		for _, workers := range []int{1, 2, 7} {
			var mu sync.Mutex
			seen := make(map[int]Outcome)
			opts.Workers = workers
			opts.OnOutcome = func(i int, o Outcome) {
				mu.Lock()
				defer mu.Unlock()
				if _, dup := seen[i]; dup {
					t.Errorf("seed %d workers=%d: grid point %d delivered twice", seed, workers, i)
				}
				seen[i] = o
			}
			got, err := Run(context.Background(), cases, axes, opts)
			if err != nil {
				t.Fatalf("seed %d workers=%d: %v", seed, workers, err)
			}
			if len(got.Outcomes) != len(want.Outcomes) || len(seen) != len(want.Outcomes) {
				t.Fatalf("seed %d workers=%d: %d outcomes, %d delivered, want %d", seed, workers, len(got.Outcomes), len(seen), len(want.Outcomes))
			}
			for i := range want.Outcomes {
				if got.Outcomes[i] != want.Outcomes[i] {
					t.Fatalf("seed %d workers=%d axes %+v: grid point %d diverges:\nplanned:   %+v\nper-point: %+v", seed, workers, axes, i, got.Outcomes[i], want.Outcomes[i])
				}
				if seen[i] != got.Outcomes[i] {
					t.Fatalf("seed %d workers=%d: OnOutcome delivered %+v for point %d, report has %+v", seed, workers, seen[i], i, got.Outcomes[i])
				}
			}
		}
	}
}

// acquireCountingCtx counts the Limiter.Acquire calls made with it:
// Acquire evaluates ctx.Done() exactly once per call, and nothing else
// in the package asks from inside Acquire.
type acquireCountingCtx struct {
	context.Context
	acquires atomic.Int64
}

func (c *acquireCountingCtx) Done() <-chan struct{} {
	var pcs [8]uintptr
	frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs[:])])
	if f, _ := frames.Next(); strings.HasSuffix(f.Function, "(*Limiter).Acquire") {
		c.acquires.Add(1)
	}
	return c.Context.Done()
}

// TestLimiterSlotPerExecution: the process-wide budget is drawn per
// simulated execution, not per grid point. Through a one-slot limiter
// the smoke grid takes exactly as many slots as it makes executions, at
// most one is ever held (none while a callback runs on the only worker),
// seven workers contending for the one slot neither deadlock nor change
// a byte, and everything is returned.
func TestLimiterSlotPerExecution(t *testing.T) {
	smoke, _, _ := committedGrids(t)
	free, wantExecs := counted(t, smoke, DefaultAxes(), Options{Workers: 2})
	for _, workers := range []int{1, 7} {
		lim := NewLimiter(1)
		ctx := &acquireCountingCtx{Context: context.Background()}
		var n atomic.Int64
		rep, err := Run(ctx, smoke, DefaultAxes(), Options{
			Workers: workers, Limiter: lim, executions: &n,
			OnOutcome: func(i int, o Outcome) {
				if held := lim.InUse(); held > 1 || (workers == 1 && held != 0) {
					t.Errorf("workers=%d: %d slots held while point %d was delivered", workers, held, i)
				}
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := int(ctx.acquires.Load()); got != wantExecs || int(n.Load()) != wantExecs {
			t.Errorf("workers=%d: %d limiter acquisitions for %d executions, want %d of each (%d points)", workers, got, n.Load(), wantExecs, len(rep.Outcomes))
		}
		if lim.InUse() != 0 {
			t.Errorf("workers=%d: limiter leaked %d slots", workers, lim.InUse())
		}
		if !reflect.DeepEqual(rep, free) {
			t.Errorf("workers=%d: the limiter changed the report", workers)
		}
	}
}

// TestCancelledMidGridReturnsNoReport: a context cancelled after the
// first delivered outcome — executions still queued, duplicates still to
// scatter — yields ctx.Err() and no report, with or without a limiter,
// and leaves no slot held.
func TestCancelledMidGridReturnsNoReport(t *testing.T) {
	cases := testCases()
	for _, lim := range []*Limiter{nil, NewLimiter(1)} {
		for _, workers := range []int{1, 3} {
			ctx, cancel := context.WithCancel(context.Background())
			var once sync.Once
			rep, err := Run(ctx, cases, Axes{Seed: 1}, Options{
				Workers: workers, Limiter: lim,
				OnOutcome: func(int, Outcome) { once.Do(cancel) },
			})
			cancel()
			if err != context.Canceled || rep != nil {
				t.Errorf("limiter=%v workers=%d: cancelled sweep returned (%v, %v), want (nil, context.Canceled)", lim != nil, workers, rep, err)
			}
			if lim.InUse() != 0 {
				t.Errorf("workers=%d: cancelled sweep left %d slots held", workers, lim.InUse())
			}
		}
	}
}

// TestSplitSpansPartitions pins the scheduling unit: spans partition
// every unit exactly once, split only when units are scarcer than
// workers, and never produce an empty span.
func TestSplitSpansPartitions(t *testing.T) {
	for _, tc := range []struct {
		sizes   []int
		workers int
		spans   int
	}{
		{[]int{18, 24, 22, 24, 18, 28}, 2, 6}, // enough units: one span each
		{[]int{18}, 2, 2},                     // one class on two workers: sub-split
		{[]int{3, 1}, 7, 4},                   // parts capped by the unit's size
		{nil, 4, 0},
	} {
		spans := splitSpans(tc.sizes, tc.workers)
		if len(spans) != tc.spans {
			t.Errorf("splitSpans(%v, %d) = %v, want %d spans", tc.sizes, tc.workers, spans, tc.spans)
		}
		covered := make([]int, len(tc.sizes))
		for _, sp := range spans { // emitted in unit, then lo, order
			if sp.lo >= sp.hi || sp.lo != covered[sp.unit] {
				t.Errorf("splitSpans(%v, %d): span %+v is empty or leaves a gap after %d", tc.sizes, tc.workers, sp, covered[sp.unit])
			}
			covered[sp.unit] = sp.hi
		}
		if !slices.Equal(covered, tc.sizes) {
			t.Errorf("splitSpans(%v, %d) covers %v", tc.sizes, tc.workers, covered)
		}
	}
}

// referenceCells are o's table cells as they were written with fmt.
func referenceCells(o Outcome) []string {
	queues := fmt.Sprintf("%d", o.QueuesUsed)
	if o.Queues == 0 {
		if o.Result == "rejected" || o.Result == "error" {
			queues = "auto"
		} else {
			queues = fmt.Sprintf("auto(%d)", o.QueuesUsed)
		}
	}
	result := o.Result
	if o.Result == "error" {
		result = "error*"
	}
	return []string{o.CaseName, o.Policy.String(), queues, fmt.Sprint(o.Capacity), fmt.Sprint(o.Lookahead),
		linkModelLabel(o.LinkModel), result, fmt.Sprint(o.Cycles), fmt.Sprint(o.MaxQueueDepth)}
}

// referenceHead is the table's header; referenceLeft marks its
// flush-left columns.
var (
	referenceHead = []string{"case", "policy", "queues", "capacity", "lookahead", "link-model", "result", "cycles", "max-depth"}
	referenceLeft = []bool{true, true, false, false, false, true, false, false, false}
)

// referenceTable is Report.Table's row rendering written with fmt, kept
// as the byte-for-byte reference for the strconv rendering: each column
// is as wide as the widest of its header, its least width and its
// values, counted in runes as fmt pads.
func referenceTable(r *Report) string {
	widths := []int{12, 18, 7, 9, 10, 14, 12, 7, 9}
	rows := [][]string{referenceHead}
	for _, o := range r.Outcomes {
		rows = append(rows, referenceCells(o))
	}
	for _, row := range rows {
		for c, v := range row {
			widths[c] = max(widths[c], utf8.RuneCountInString(v))
		}
	}
	var b strings.Builder
	for _, row := range rows {
		for c, v := range row {
			format := "%*s"
			if referenceLeft[c] {
				format = "%-*s"
			}
			fmt.Fprintf(&b, format, widths[c], v)
			if c < len(row)-1 {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestTableMatchesFmtRendering holds the fmt-free row rendering to the
// fmt one on a grid with every row shape: auto(n) and plain budgets, the
// unresolved "auto" of rejected and error* rows, link-model specs wider
// than their least width, a case name wider than its least width and
// one with multi-byte runes (fmt pads by rune), cycle counts and a
// queue count (an error row at 10⁸ queues) wider than theirs. Every row
// must line up with the header: a flush-left value starts where its
// header name starts and a flush-right one ends where its header name
// ends, counted in runes.
func TestTableMatchesFmtRendering(t *testing.T) {
	p1 := workload.Fig5P1()
	f7 := workload.Fig7(workload.Fig7Options{})
	cases := []Case{
		{Name: "fig7", Program: f7.Program, Topology: f7.Topology},
		{Name: "p1-strict-rejected", Program: p1.Program, Topology: p1.Topology},
		{Name: "Δ-ring", Program: f7.Program, Topology: f7.Topology},
	}
	axes := Axes{
		Policies:   []core.PolicyKind{core.NaiveFCFS, core.DynamicCompatible},
		Queues:     []int{0, 1, 12, 100000000},
		Capacities: []int{1},
		Lookaheads: []int{0, 2},
		LinkModels: []string{"", "fixed,delay=1048576", "congestion,delay=1,threshold=2,max=4"},
		Seed:       1,
	}
	// A fault plan naming a link only Fig 7's ring has makes the other
	// program's simulated rows error rows.
	plan, err := fault.ParseSpec(fmt.Sprintf("link:%d:slow=2", len(p1.Topology.Links())))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), cases, axes, Options{Faults: plan})
	if err != nil {
		t.Fatal(err)
	}
	table := rep.Table()
	for _, shape := range []string{"auto(", " auto ", "error*", "rejected", "fixed,delay=1048576", "congestion,delay=1,threshold=2,max=4", "Δ-ring", "unit", " 100000000 "} {
		if !strings.Contains(table, shape) {
			t.Errorf("the grid has no %q row; the pin is vacuous there:\n%s", shape, table)
		}
	}
	want := referenceTable(rep)
	if !strings.HasPrefix(table, want) {
		t.Fatalf("table rows diverge from the fmt rendering:\n%s\nwant prefix\n%s", table, want)
	}
	if rest := table[len(want):]; !strings.HasPrefix(rest, "* ") && !strings.HasPrefix(rest, "\n") {
		t.Fatalf("unexpected text after the rows: %q", rest[:min(len(rest), 80)])
	}

	lines := strings.Split(table, "\n")
	header := []rune(lines[0])
	starts := make([]int, len(referenceHead))
	from := 0
	for c, name := range referenceHead {
		i := strings.Index(string(header[from:]), name)
		if i < 0 {
			t.Fatalf("header %q has no column %q", lines[0], name)
		}
		starts[c] = from + utf8.RuneCountInString(string(header[from:])[:i])
		from = starts[c] + len(name)
	}
	for i, o := range rep.Outcomes {
		line := []rune(lines[i+1])
		for c, v := range referenceCells(o) {
			n := utf8.RuneCountInString(v)
			at := starts[c]
			if !referenceLeft[c] {
				at += len(referenceHead[c]) - n
			}
			if at < 0 || at+n > len(line) || string(line[at:at+n]) != v {
				t.Errorf("row %d: %s %q is not under its header:\n%s\n%s", i, referenceHead[c], v, lines[0], lines[i+1])
			}
		}
	}
}

// TestFirstSimulatedPointRunsFirst: largest-first scheduling must not
// delay the grid's first point, which an in-order consumer (the
// streaming endpoint) waits on. Seed 63 of the §8 recipe is relabeled
// at lookahead 2, and its lookahead-2 class has more distinct
// executions than its strict class (auto resolves to 1 queue under
// strict labels and lands on the axis, to 2 under lookahead labels), so
// a plain largest-first order would run it first on a single worker.
func TestFirstSimulatedPointRunsFirst(t *testing.T) {
	c := section8Case(t, 63)
	axes := Axes{
		Policies:   []core.PolicyKind{core.DynamicCompatible},
		Queues:     []int{0, 1},
		Capacities: []int{2},
		Lookaheads: []int{0, 2},
		Seed:       1,
	}
	var order []int
	rep, n := counted(t, []Case{c}, axes, Options{Workers: 1, OnOutcome: func(i int, _ Outcome) { order = append(order, i) }})
	if rep.Outcomes[0].QueuesUsed != 1 || rep.Outcomes[2].QueuesUsed != 2 || n != 3 {
		t.Fatalf("auto budgets %d (strict) and %d (lookahead 2), %d executions; want 1, 2 and 3 — the recipe drifted", rep.Outcomes[0].QueuesUsed, rep.Outcomes[2].QueuesUsed, n)
	}
	if order[0] != 0 {
		t.Errorf("delivery order %v: grid point 0 must come first on one worker", order)
	}
}
