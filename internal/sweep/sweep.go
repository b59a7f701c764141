// Package sweep is the batch engine over the Analyze/Execute pipeline:
// it fans a grid of configurations — cases (program × topology),
// assignment policy, queues per link, queue capacity, lookahead budget
// — across a bounded worker pool and collects every run's outcome into
// a deterministic, order-stable report.
//
// The paper proves a point configuration safe (Theorem 1); the sweep
// engine is how that point is found: run the whole neighbourhood, see
// which configurations deadlock at run time, and read off the budgets
// that avoid it. Reports are byte-identical regardless of worker
// count: the grid is enumerated in a fixed order, every outcome is
// written to its own slot, and all randomness is seeded per
// configuration.
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"unicode/utf8"

	"systolic/internal/core"
	"systolic/internal/fault"
	"systolic/internal/linkmodel"
	"systolic/internal/machine"
	"systolic/internal/model"
	"systolic/internal/topology"
)

// ForEach runs fn(i) for every i in [0,n) across a bounded worker
// pool (workers ≤ 0 means runtime.GOMAXPROCS(0)). Callers write each
// result into its own slot, which keeps the output order-stable for
// any worker count — the same discipline Run uses for its grid, shared
// here so other batch engines (the differential oracle in
// internal/diff) fan out the same way. Cancelling ctx abandons
// unstarted indices and returns ctx.Err(); started calls always
// finish.
func ForEach(ctx context.Context, n, workers int, fn func(int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	feed := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range feed {
				fn(i)
			}
		}()
	}
	var cancelled error
feeding:
	for i := 0; i < n; i++ {
		select {
		case <-ctx.Done():
			cancelled = ctx.Err()
			break feeding
		case feed <- i:
		}
	}
	close(feed)
	wg.Wait()
	return cancelled
}

// Case is one named (program, topology) pair under sweep.
type Case struct {
	Name     string
	Program  *model.Program
	Topology topology.Topology
}

// Axes spans the configuration grid: the cartesian product of every
// axis is run for every case. Empty axes take the defaults of
// DefaultAxes.
type Axes struct {
	// Policies are the assignment disciplines to contrast (e.g. the
	// paper's compatible policy against the naive FCFS baseline).
	Policies []core.PolicyKind
	// Queues are queues-per-link budgets; 0 means "the analysis'
	// minimum for the policy" (Theorem 1's assumption (ii) met
	// exactly).
	Queues []int
	// Capacities are per-queue word capacities (≥ 1).
	Capacities []int
	// Lookaheads are §8 skip budgets; 0 means the strict §3 procedure,
	// n > 0 classifies and labels with a uniform budget of n skipped
	// writes per message per located pair.
	Lookaheads []int
	// LinkModels are link-timing specs (see linkmodel.ParseSpec); the
	// empty string is the unit-latency interconnect. Empty means just
	// unit timing — the link axis is opt-in, so default grids keep
	// their historical shape.
	LinkModels []string
	// Seed feeds randomized policies; one seed keeps the whole grid
	// deterministic.
	Seed int64
}

// DefaultAxes contrasts the naive FCFS baseline with the paper's two
// compatible policies over small queue and capacity budgets, strict
// and lookahead-2. Its slices are the caller's to edit.
func DefaultAxes() Axes {
	d := defaultAxes
	d.Policies = slices.Clone(d.Policies)
	d.Queues = slices.Clone(d.Queues)
	d.Capacities = slices.Clone(d.Capacities)
	d.Lookaheads = slices.Clone(d.Lookaheads)
	d.LinkModels = slices.Clone(d.LinkModels)
	return d
}

// defaultAxes is DefaultAxes, read only: WithDefaults fills empty axes
// from it without allocating.
var defaultAxes = Axes{
	Policies:   []core.PolicyKind{core.NaiveFCFS, core.StaticAssignment, core.DynamicCompatible},
	Queues:     []int{0, 1, 2, 3},
	Capacities: []int{1, 2},
	Lookaheads: []int{0, 2},
	LinkModels: []string{""},
	Seed:       1,
}

// WithDefaults resolves empty axes to the DefaultAxes values — the
// exact grid Run will enumerate. Callers that need the grid's shape
// before running it (the serving layer sizes quotas and pre-resolves
// per-lookahead analyses) use this to agree with the engine. A filled
// axis shares the package's default slice, which nobody may edit, so
// the call allocates nothing.
func (a Axes) WithDefaults() Axes {
	d := &defaultAxes
	if len(a.Policies) == 0 {
		a.Policies = d.Policies
	}
	if len(a.Queues) == 0 {
		a.Queues = d.Queues
	}
	if len(a.Capacities) == 0 {
		a.Capacities = d.Capacities
	}
	if len(a.Lookaheads) == 0 {
		a.Lookaheads = d.Lookaheads
	}
	if len(a.LinkModels) == 0 {
		a.LinkModels = d.LinkModels
	}
	return a
}

// Validate reports the first configuration error in the axes, after
// default resolution — the same checks Run performs up front, exported
// so callers that stream results can refuse a bad grid before any
// response bytes are committed.
func (a Axes) Validate() error {
	_, err := a.WithDefaults().check()
	return err
}

// check validates the (already defaulted) axes and returns the parsed
// link-model axis, spec → plan: the one parse Run and Validate need. The
// empty spec maps to a nil plan — the unit-latency interconnect.
func (a Axes) check() (map[string]*linkmodel.Plan, error) {
	for _, q := range a.Queues {
		if q < 0 {
			return nil, fmt.Errorf("sweep: negative queue budget %d", q)
		}
	}
	for _, cp := range a.Capacities {
		if cp < 1 {
			return nil, fmt.Errorf("sweep: capacity %d < 1 (the latch regime needs a dedicated run, not a grid)", cp)
		}
	}
	for _, la := range a.Lookaheads {
		if la < 0 {
			return nil, fmt.Errorf("sweep: negative lookahead budget %d", la)
		}
	}
	plans := make(map[string]*linkmodel.Plan, len(a.LinkModels))
	for _, spec := range a.LinkModels {
		if spec == "" {
			plans[spec] = nil
			continue
		}
		p, err := linkmodel.ParseSpec(spec)
		if err != nil {
			return nil, fmt.Errorf("sweep: link model %q: %v", spec, err)
		}
		plans[spec] = p
	}
	return plans, nil
}

// Size returns the number of grid points for numCases cases.
func (a Axes) Size(numCases int) int {
	a = a.WithDefaults()
	return numCases * len(a.Policies) * len(a.Queues) * len(a.Capacities) * len(a.Lookaheads) * len(a.LinkModels)
}

// Config is one grid point.
type Config struct {
	Case      int // index into the cases slice
	Policy    core.PolicyKind
	Queues    int // 0 = analysis minimum for the policy
	Capacity  int
	Lookahead int    // 0 = strict crossing-off
	LinkModel string // linkmodel spec; "" = unit-latency links
	Seed      int64
}

// Outcome is the result of one grid point.
type Outcome struct {
	Config
	CaseName string
	// DeadlockFree is the compile-time classification under the
	// config's lookahead budget. When false the run is skipped and
	// Result is "rejected".
	DeadlockFree bool
	// QueuesUsed resolves Queues (0 → the analysis minimum actually
	// simulated).
	QueuesUsed int
	// MinQueues is Theorem 1's queues-per-link requirement for the
	// config's policy (the dynamic-group minimum for compatible, the
	// competing-set minimum for static).
	MinQueues int
	// Result is "completed", "deadlocked", "timed-out", "rejected"
	// (analysis refused the program) or "error" (configuration
	// problem, see Err).
	Result string
	Cycles int
	// MaxQueueDepth is the largest queue occupancy observed.
	MaxQueueDepth int
	Err           string
}

// deadlocked reports whether this grid point stalled at run time.
func (o Outcome) deadlocked() bool { return o.Result == "deadlocked" }

// Options configures a sweep run.
type Options struct {
	// Workers bounds the pool; ≤ 0 means runtime.GOMAXPROCS(0).
	Workers int
	// MaxCycles bounds each simulation (0 = the simulator's derived
	// default).
	MaxCycles int
	// Faults, when non-nil, degrades the array for every grid point
	// (see internal/fault): the whole sweep runs on the same faulted
	// array, so the grid shows which configurations ride out the
	// degradation. Plans that do not fit a case's cell/link counts
	// surface as per-point errors.
	Faults *fault.Plan
	// Limiter, when non-nil, additionally gates every simulated
	// execution (not every grid point: see Run) on a process-wide
	// concurrency budget shared with other engines (the serving layer
	// passes its -max-concurrency limiter here, so concurrent sweeps and
	// single runs draw from one pool).
	Limiter *Limiter
	// OnOutcome, when non-nil, is called once per grid point as it
	// completes: for a simulated point and those sharing its execution,
	// from the worker goroutine that ran it, after the limiter slot has
	// been released — a slow consumer (a streaming HTTP client)
	// therefore never pins the process-wide simulation budget; for
	// rejected and analysis-error points, from Run's own goroutine before
	// any run. Indices arrive in completion order, not
	// enumeration order; the outcome passed is exactly the value the
	// final report carries at that index, so a caller that re-sorts by
	// index reconstructs the report's order-stable outcome list.
	// The callback must be safe for concurrent use. Grid points
	// abandoned by cancellation are never reported.
	OnOutcome func(index int, o Outcome)
	// PerPoint disables planning: every grid point is its own
	// core.Execute against the machine's shared scratch pool, sharing
	// nothing with other points but the analysis. The planned driver
	// produces byte-identical reports (the equivalence suite replays
	// grids through both paths); PerPoint is the escape hatch and the
	// comparison baseline for that suite and for benchmarks.
	PerPoint bool
	// Analysis, when non-nil, replaces the engine's own per-(case,
	// lookahead) analysis step: the engine calls it exactly once per
	// distinct (case index, lookahead budget) pair — from the worker
	// pool, so possibly concurrently — and shares the result across the
	// whole grid. The serving layer uses
	// this to route sweep analyses through its content-addressed
	// compiled-machine cache, so repeated sweeps of one program skip
	// Analyze and machine compilation entirely. An error is reported
	// per grid point exactly like a failed in-engine analysis.
	Analysis func(caseIdx, lookahead int) (*core.Analysis, error)

	// linkPlans maps each link-model axis spec to its parsed plan ("" →
	// nil, the unit interconnect). Run fills it from Axes.check
	// before fanning out, so runOne never re-parses on the hot path.
	linkPlans map[string]*linkmodel.Plan
	// executions, when non-nil, counts simulations started, for tests. It
	// must stay out of Report: the two drivers' reports would differ.
	executions *atomic.Int64
}

// Report is the order-stable result of a sweep: Outcomes[i] is grid
// point i in enumeration order (case-major, then lookahead, link model,
// capacity, policy, queues).
type Report struct {
	Cases    []string
	Outcomes []Outcome
}

// Run sweeps the grid. The returned report is identical for any
// worker count. Cancelling ctx abandons unstarted grid points and
// returns ctx.Err().
//
// A Result is a pure function of (compiled machine, run options), so
// Run plans before it runs: a case's lookahead columns whose analyses
// compile to the same machine form one class, a class's points with one
// effective configuration — policy, resolved queues, capacity, link
// model — share one execution, and its result is scattered to every
// point that asked for it. Options.PerPoint runs each point instead.
func Run(ctx context.Context, cases []Case, axes Axes, opts Options) (*Report, error) {
	if len(cases) == 0 {
		return nil, fmt.Errorf("sweep: no cases")
	}
	for i, c := range cases {
		if c.Program == nil || c.Topology == nil {
			return nil, fmt.Errorf("sweep: case %d (%q) missing program or topology", i, c.Name)
		}
	}
	axes = axes.WithDefaults()
	var err error
	if opts.linkPlans, err = axes.check(); err != nil {
		return nil, err
	}

	// Enumerate the grid in a fixed order; the report inherits it. Each
	// (case, lookahead) pair is a contiguous column of `block` points.
	configs := make([]Config, 0, axes.Size(len(cases)))
	for ci := range cases {
		for _, la := range axes.Lookaheads {
			for _, lm := range axes.LinkModels {
				for _, cp := range axes.Capacities {
					for _, pol := range axes.Policies {
						for _, q := range axes.Queues {
							configs = append(configs, Config{
								Case: ci, Policy: pol, Queues: q,
								Capacity: cp, Lookahead: la, LinkModel: lm, Seed: axes.Seed,
							})
						}
					}
				}
			}
		}
	}
	g := &grid{
		cases: cases, configs: configs, opts: opts,
		block:    len(configs) / (len(cases) * len(axes.Lookaheads)),
		outcomes: make([]Outcome, len(configs)),
	}
	if g.cols, err = analyseColumns(ctx, cases, axes.Lookaheads, opts); err != nil {
		return nil, err
	}

	// Spans keep a worker on one machine. Outcomes land in
	// enumeration-order slots, so the report is byte-identical for any
	// worker count and either driver.
	run, sizes := g.runPoints, slices.Repeat([]int{g.block}, len(g.cols))
	if !opts.PerPoint {
		run, sizes = g.runSpan, g.plan()
	}
	spans := splitSpans(sizes, opts.Workers)
	// Largest first: the pool hands spans out in order, so the uneven
	// classes of a mixed grid pack onto the workers longest-job-first.
	// The first span stays put: it holds the grid's first simulated point,
	// which an in-order consumer (the streaming endpoint) is waiting for.
	slices.SortStableFunc(spans[min(1, len(spans)):], func(a, b span) int { return (b.hi - b.lo) - (a.hi - a.lo) })
	if err := ForEach(ctx, len(spans), opts.Workers, func(si int) { run(ctx, spans[si]) }); err != nil {
		return nil, err
	}
	// A cancellation that struck while a worker waited on the shared
	// limiter leaves its outcomes unwritten; refuse to return a partial
	// report.
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	names := make([]string, len(cases))
	for i, c := range cases {
		names[i] = c.Name
	}
	return &Report{Cases: names, Outcomes: g.outcomes}, nil
}

// grid is one Run's shared state. classes and next are the plan (unset
// under PerPoint): classes[k].execs are class k's distinct executions,
// and next[i] is the next point sharing point i's execution, or -1.
type grid struct {
	cases    []Case
	configs  []Config
	opts     Options
	block    int      // grid points per column
	cols     []column // cols[i/block] is point i's analysis
	outcomes []Outcome
	classes  []class
	next     []int32
}

// column is one (case, lookahead) pair: the analysis — routes, labels,
// queue requirements — its block of grid points shares. The other axes
// never reach the analysis. (Capacity affects it only through the
// derived R2 budget, which the explicit lookahead axis always overrides.)
type column struct {
	a   *core.Analysis
	err error
}

// live reports whether the column's points are simulated at all.
func (c column) live() bool { return c.err == nil && c.a.DeadlockFree }

// class is the columns of one case whose analyses compile to the same
// machine — compared with core.Analysis.SameMachine, never assumed from
// the lookahead values. a is the first such column's analysis, and its
// machine runs every execution of the class; execs holds the first grid
// point of each distinct execution, the head of its chain in grid.next.
type class struct {
	a     *core.Analysis
	execs []int32
}

// execKey is what a run's result depends on within one Run: the machine
// and the point's run options after queue resolution. Seed, faults,
// cycle bound and run workers are sweep-wide constants.
type execKey struct {
	class, queues, capacity int
	policy                  core.PolicyKind
	linkModel               string
}

// analyseColumns analyses every distinct (case, lookahead) pair exactly
// once, across the worker pool — through opts.Analysis when installed —
// and returns one column per pair in enumeration order. A budget
// repeated on the axis shares its first column's analysis.
func analyseColumns(ctx context.Context, cases []Case, lookaheads []int, opts Options) ([]column, error) {
	nl := len(lookaheads)
	first := make([]int, nl) // first axis position holding the same budget
	seen := make(map[int]int, nl)
	for li, la := range lookaheads {
		if _, dup := seen[la]; !dup {
			seen[la] = li
		}
		first[li] = seen[la]
	}
	cols := make([]column, len(cases)*nl)
	err := ForEach(ctx, len(cols), opts.Workers, func(j int) {
		ci, li := j/nl, j%nl
		if first[li] != li {
			return
		}
		if opts.Analysis != nil {
			cols[j].a, cols[j].err = opts.Analysis(ci, lookaheads[li])
		} else {
			cols[j].a, cols[j].err = analyze(cases[ci], lookaheads[li])
		}
	})
	for j := range cols {
		cols[j] = cols[j-j%nl+first[j%nl]]
	}
	return cols, err
}

// analyze runs the compile-time pipeline for one (case, lookahead)
// pair. The explicit budget override makes AnalyzeOptions.Capacity
// irrelevant, so capacities share one analysis.
func analyze(c Case, lookahead int) (*core.Analysis, error) {
	return core.Analyze(c.Program, c.Topology, core.LookaheadOptions(lookahead))
}

// plan sorts the grid into classes and distinct executions and returns
// each class's execution count. Rejected and analysis-error columns
// need no run: their points are delivered here.
func (g *grid) plan() []int {
	g.next = make([]int32, len(g.configs))
	last := make(map[execKey]int32, g.block) // the latest point that asked for each execution
	perCase := len(g.cols) / len(g.cases)
	caseStart := 0 // the current case's first class
	for j, col := range g.cols {
		if j%perCase == 0 {
			caseStart = len(g.classes)
		}
		lo, hi := j*g.block, (j+1)*g.block
		if !col.live() {
			for i := lo; i < hi; i++ {
				o, _ := g.describe(i)
				g.deliver(i, o)
			}
			continue
		}
		k := caseStart
		for k < len(g.classes) && !g.classes[k].a.SameMachine(col.a) {
			k++
		}
		if k == len(g.classes) {
			g.classes = append(g.classes, class{a: col.a, execs: make([]int32, 0, g.block)})
		}
		for i := lo; i < hi; i++ {
			o, _ := g.describe(i)
			key := execKey{k, o.QueuesUsed, o.Capacity, o.Policy, o.LinkModel}
			if prev, dup := last[key]; dup {
				g.next[prev] = int32(i)
			} else {
				g.classes[k].execs = append(g.classes[k].execs, int32(i))
			}
			g.next[i], last[key] = -1, int32(i)
		}
	}
	sizes := make([]int, len(g.classes))
	for k, cl := range g.classes {
		sizes[k] = len(cl.execs)
	}
	return sizes
}

// span is one worker-affine unit of grid work: items [lo, hi) of one
// unit — a class's executions, or under PerPoint a column's points.
type span struct{ unit, lo, hi int }

// splitSpans carves units of the given sizes into spans. With at least
// as many units as workers each unit is one span; with fewer, every
// unit is split into equal-as-possible parts so all workers stay busy.
// A span never crosses a unit boundary — its work shares one machine.
func splitSpans(sizes []int, workers int) []span {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	parts := 1
	if n := len(sizes); 0 < n && n < workers {
		parts = (workers + n - 1) / n
	}
	spans := make([]span, 0, len(sizes)*parts)
	for u, size := range sizes {
		p := min(parts, size)
		for k := 0; k < p; k++ {
			spans = append(spans, span{u, k * size / p, (k + 1) * size / p})
		}
	}
	return spans
}

// runSpan replays a run of one class's executions back-to-back through
// one core.Runner — scratch arenas, ready sets and result buffers
// survive from run to run instead of round-tripping through the
// process-wide exec pool — and scatters each result to the points that
// asked for it. The runner gives its scratch back when the span ends,
// so the next span, of any class, starts warm. The machine is compiled
// before any slot is taken. Each execution holds one limiter slot,
// released before its callbacks fire, so a slow consumer stalls this
// worker but never the process-wide simulation budget. A cancelled
// Acquire abandons the rest of the span; Run refuses to return the
// partial report. The limiter slot is released without defer — the
// loop holds at most one at a time, and a panicking run is fatal
// anyway.
func (g *grid) runSpan(ctx context.Context, sp span) {
	cl := &g.classes[sp.unit]
	runner := core.NewRunner(cl.a)
	defer runner.Release()
	_, _ = cl.a.Machine() // a compile failure surfaces per point via Execute
	for _, first := range cl.execs[sp.lo:sp.hi] {
		if err := g.opts.Limiter.Acquire(ctx); err != nil {
			return
		}
		ran := g.runOne(ctx, int(first), runner)
		g.opts.Limiter.Release()
		// Only what the run produced is shared; the rest of an outcome
		// comes from the point's own config and analysis.
		for i := int(first); i >= 0; i = int(g.next[i]) {
			o, _ := g.describe(i)
			o.Result, o.Cycles, o.MaxQueueDepth, o.Err = ran.Result, ran.Cycles, ran.MaxQueueDepth, ran.Err
			g.deliver(i, o)
		}
	}
}

// runPoints is the PerPoint driver's span: a run of one column's points,
// each an independent core.Execute under its own limiter slot.
func (g *grid) runPoints(ctx context.Context, sp span) {
	if col := g.cols[sp.unit]; col.live() {
		_, _ = col.a.Machine()
	}
	for i := sp.unit*g.block + sp.lo; i < sp.unit*g.block+sp.hi; i++ {
		if err := g.opts.Limiter.Acquire(ctx); err != nil {
			return
		}
		o := g.runOne(ctx, i, nil)
		g.opts.Limiter.Release()
		g.deliver(i, o)
	}
}

// deliver writes point i's final outcome to its report slot and hands
// it to the streaming hook.
func (g *grid) deliver(i int, o Outcome) {
	g.outcomes[i] = o
	if g.opts.OnOutcome != nil {
		g.opts.OnOutcome(i, o)
	}
}

// describe fills in what point i's outcome takes from its own config
// and analysis — everything but the run's result — and reports whether
// the point is to be simulated: analysis errors and rejected programs
// are final here.
func (g *grid) describe(i int) (Outcome, bool) {
	cfg, col := g.configs[i], g.cols[i/g.block]
	// QueuesUsed starts as the requested budget so rejected/error rows
	// still report which configuration they were; simulated rows below
	// resolve 0 to the analysis minimum.
	o := Outcome{Config: cfg, CaseName: g.cases[cfg.Case].Name, QueuesUsed: cfg.Queues}
	if col.err != nil {
		o.Result = "error"
		o.Err = col.err.Error()
		return o, false
	}
	o.DeadlockFree = col.a.DeadlockFree
	if !col.a.DeadlockFree {
		o.Result = "rejected"
		return o, false
	}
	o.MinQueues = col.a.MinQueues(cfg.Policy)
	o.QueuesUsed = col.a.ResolveQueues(cfg.Policy, cfg.Queues)
	return o, true
}

// runOne executes grid point i. A non-nil runner routes the run through
// the span's retained execution context — over the point's class, whose
// analysis may be another column's; nil falls back to core.Execute on
// the point's own analysis (the PerPoint path). Only scalars are copied
// out of the Result, so the runner's aliased Result buffers are safe to
// reuse on the next run and to release when the span ends.
func (g *grid) runOne(ctx context.Context, i int, runner *core.Runner) Outcome {
	o, live := g.describe(i)
	if !live {
		return o
	}
	if g.opts.executions != nil {
		g.opts.executions.Add(1)
	}
	eopts := core.ExecOptions{
		Policy:        o.Policy,
		QueuesPerLink: o.QueuesUsed,
		Capacity:      o.Capacity,
		Seed:          o.Seed,
		MaxCycles:     g.opts.MaxCycles,
		Faults:        g.opts.Faults,
		LinkModel:     g.opts.linkPlans[o.LinkModel],
		// Context threads the sweep's cancellation into the run itself:
		// without it a cancelled caller (a dropped /v1/sweep client)
		// only stops unstarted grid points while every in-flight
		// simulation runs to completion, pinning its limiter slot.
		Context: ctx,
		// Force: under-provisioned grid points are the interesting
		// ones — let them run and deadlock rather than be refused.
		Force: true,
	}
	var res *machine.Result
	var err error
	if runner != nil {
		res, err = runner.Execute(eopts)
	} else {
		res, err = core.Execute(g.cols[i/g.block].a, eopts)
	}
	if err != nil {
		o.Result = "error"
		o.Err = err.Error()
		return o
	}
	o.Result = res.Outcome()
	o.Cycles = res.Cycles
	for _, qs := range res.Stats.Queues {
		if qs.Stats.MaxOccupancy > o.MaxQueueDepth {
			o.MaxQueueDepth = qs.Stats.MaxOccupancy
		}
	}
	return o
}

// Deadlocked returns the outcomes that stalled at run time, in report
// order.
func (r *Report) Deadlocked() []Outcome {
	var out []Outcome
	for _, o := range r.Outcomes {
		if o.deadlocked() {
			out = append(out, o)
		}
	}
	return out
}

// SafeBudgets returns, per case name, the smallest queues-per-link
// budget that completed under every (capacity, lookahead, link-model)
// combination
// the case was simulated with for the given policy — the empirical
// Theorem 1 budget. A budget only counts when it was actually run in
// every combination (auto budgets can resolve differently per
// analysis), and never failed anywhere. Cases with no such budget are
// absent.
func (r *Report) SafeBudgets(policy core.PolicyKind) map[string]int {
	type combo struct {
		capacity, lookahead int
		linkModel           string
	}
	combos := make(map[string]map[combo]bool)              // all combos simulated per case
	completedAt := make(map[string]map[int]map[combo]bool) // combos completed per budget
	failed := make(map[string]map[int]bool)                // budgets that ever failed
	for _, o := range r.Outcomes {
		if o.Policy != policy || o.Result == "rejected" || o.Result == "error" {
			continue
		}
		cb := combo{o.Capacity, o.Lookahead, o.LinkModel}
		if combos[o.CaseName] == nil {
			combos[o.CaseName] = make(map[combo]bool)
		}
		combos[o.CaseName][cb] = true
		q := o.QueuesUsed
		if o.Result == "completed" {
			if completedAt[o.CaseName] == nil {
				completedAt[o.CaseName] = make(map[int]map[combo]bool)
			}
			if completedAt[o.CaseName][q] == nil {
				completedAt[o.CaseName][q] = make(map[combo]bool)
			}
			completedAt[o.CaseName][q][cb] = true
		} else {
			if failed[o.CaseName] == nil {
				failed[o.CaseName] = make(map[int]bool)
			}
			failed[o.CaseName][q] = true
		}
	}
	out := make(map[string]int)
	//sysvet:unordered -- each case writes only its own out[name] key
	for name, byBudget := range completedAt {
		best := -1
		//sysvet:unordered -- computes a minimum over budgets, which is order-independent
		for q, done := range byBudget {
			if failed[name][q] || len(done) < len(combos[name]) {
				continue
			}
			if best < 0 || q < best {
				best = q
			}
		}
		if best >= 0 {
			out[name] = best
		}
	}
	return out
}

// linkModelLabel renders a Config.LinkModel spec for the table; the
// empty spec is the unit-latency interconnect.
func linkModelLabel(spec string) string {
	if spec == "" {
		return "unit"
	}
	return spec
}

// tableWriter renders Table's header and rows in two passes over the
// same cells: the measuring pass only widens each column to its widest
// cell, and the writing pass pads every cell to its column's width.
type tableWriter struct {
	b         *strings.Builder
	w         [9]int // per column: width in runes
	measuring bool
}

// tableLeft marks the flush-left columns: case, policy and link model.
const tableLeft = 1<<0 | 1<<1 | 1<<5

// cell pads s with spaces to column c's width, flush left or right as
// fmt's %-Ns and %Ns print, and ends it with a space, or a newline
// after the last column.
func (t *tableWriter) cell(c int, s string) {
	n := utf8.RuneCountInString(s)
	if t.measuring {
		t.w[c] = max(t.w[c], n)
		return
	}
	left := tableLeft>>c&1 == 1
	if left {
		t.b.WriteString(s)
	}
	for pad := t.w[c] - n; pad > 0; pad-- {
		t.b.WriteByte(' ')
	}
	if !left {
		t.b.WriteString(s)
	}
	if c == len(t.w)-1 {
		t.b.WriteByte('\n')
	} else {
		t.b.WriteByte(' ')
	}
}

// intCell is cell for a number, formatted on the stack.
func (t *tableWriter) intCell(c, v int) {
	var num [20]byte
	t.cell(c, string(strconv.AppendInt(num[:0], int64(v), 10)))
}

// row renders o's cells.
func (t *tableWriter) row(o *Outcome) {
	var num [24]byte
	queues := strconv.AppendInt(num[:0], int64(o.QueuesUsed), 10)
	if o.Queues == 0 && (o.Result == "rejected" || o.Result == "error") {
		queues = append(num[:0], "auto"...) // never resolved: the run was not simulated
	} else if o.Queues == 0 {
		queues = append(strconv.AppendInt(append(num[:0], "auto("...), int64(o.QueuesUsed), 10), ')')
	}
	result := o.Result
	if o.Result == "error" {
		result = "error*"
	}
	t.cell(0, o.CaseName)
	t.cell(1, o.Policy.String())
	t.cell(2, string(queues))
	t.intCell(3, o.Capacity)
	t.intCell(4, o.Lookahead)
	t.cell(5, linkModelLabel(o.LinkModel))
	t.cell(6, result)
	t.intCell(7, o.Cycles)
	t.intCell(8, o.MaxQueueDepth)
}

// Table renders the report as a text table, one row per grid point in
// enumeration order, followed by a per-case summary of deadlock counts
// and safe budgets. Each column is as wide as the wider of its least
// width and its widest cell, so no cell shifts the rest of its row. The
// rendering is deterministic: equal reports produce byte-identical
// tables. Rows go into one pre-grown builder without fmt: every
// /v1/sweep reply carries the table.
func (r *Report) Table() string {
	var b strings.Builder
	b.Grow((len(r.Outcomes) + 1) * 108)
	t := tableWriter{b: &b, w: [...]int{12, 18, 7, 9, 10, 14, 12, 7, 9}, measuring: true}
	for pass := 0; pass < 2; pass++ {
		for c, head := range [...]string{"case", "policy", "queues", "capacity", "lookahead", "link-model", "result", "cycles", "max-depth"} {
			t.cell(c, head)
		}
		for i := range r.Outcomes {
			t.row(&r.Outcomes[i])
		}
		t.measuring = false
	}
	for _, o := range r.Outcomes {
		if o.Result == "error" {
			fmt.Fprintf(&b, "* %s %s queues=%d capacity=%d lookahead=%d link-model=%s: %s\n",
				o.CaseName, o.Policy.String(), o.QueuesUsed, o.Capacity, o.Lookahead, linkModelLabel(o.LinkModel), o.Err)
		}
	}
	b.WriteString("\n")
	counts := make(map[string][2]int) // case -> [deadlocked, total-run]
	order := append([]string(nil), r.Cases...)
	sort.Strings(order)
	for _, o := range r.Outcomes {
		if o.Result == "rejected" || o.Result == "error" {
			continue
		}
		c := counts[o.CaseName]
		if o.deadlocked() {
			c[0]++
		}
		c[1]++
		counts[o.CaseName] = c
	}
	summaryPolicies := []core.PolicyKind{core.DynamicCompatible, core.StaticAssignment}
	safe := make([]map[string]int, len(summaryPolicies))
	for i, pol := range summaryPolicies {
		safe[i] = r.SafeBudgets(pol)
	}
	for _, name := range order {
		c := counts[name]
		fmt.Fprintf(&b, "%s: %d/%d simulated configurations deadlocked\n", name, c[0], c[1])
		for i, pol := range summaryPolicies {
			if q, ok := safe[i][name]; ok {
				fmt.Fprintf(&b, "%s: %s completes every swept configuration at %d queue(s)/link\n", name, pol.String(), q)
			}
		}
	}
	return b.String()
}
