// Package diff is the differential oracle that cross-checks Theorem 1
// against the simulator at scale. For each generated scenario
// (internal/gen) it runs the compile-time analysis, then executes the
// program under a matrix of policy × queue budget × capacity
// configurations, and asserts the paper's invariants:
//
//  1. a program the crossing-off test declares deadlock-free, run with
//     at least the Theorem 1 queue budget, never deadlocks in
//     simulation ("theorem1-completion");
//  2. static and dynamic compatible assignment deliver identical word
//     streams when both complete ("stream-equality"), and every
//     completed stream matches the synthetic per-word expectation
//     ("stream-integrity");
//  3. the §6 labeling the analyzer produced is consistent
//     ("label-consistency");
//  4. any simulated deadlock on an analyzer-approved configuration is
//     reported as a minimized counterexample carrying the seed that
//     reproduces it.
//
// Deliberately under-budgeted runs (queue override below the Theorem 1
// bound) are the control group: their deadlocks are *expected*
// counterexamples demonstrating the bound is load-bearing, reported
// with the same minimized-program machinery but not counted as
// violations.
//
// Reports are deterministic: scenario seeds derive from the base seed
// (seed+i), every result lands in its own slot (sweep.ForEach), and
// rendering is order-stable — byte-identical output for any worker
// count.
//
// Each scenario is analyzed once and its policy × budget × capacity
// matrix executes against the single machine compiled for that
// analysis (core.Analysis.Machine); shrinking re-analyzes only
// because every candidate is a different program, and even then each
// candidate's accept/reject simulations share one compile.
package diff

import (
	"context"
	"fmt"
	"reflect"
	"strings"

	"systolic/internal/core"
	"systolic/internal/dsl"
	"systolic/internal/fault"
	"systolic/internal/gen"
	"systolic/internal/label"
	"systolic/internal/linkmodel"
	"systolic/internal/machine"
	"systolic/internal/model"
	"systolic/internal/queue"
	"systolic/internal/sweep"
)

// Options configures the oracle.
type Options struct {
	// Gen are the scenario-generation knobs (zero = per-seed random).
	Gen gen.Options
	// QueueOverride, when > 0, replaces the slack grid with one
	// absolute queues-per-link budget for every run — the deliberate
	// under-budget probe.
	QueueOverride int
	// Lookahead is the §8 analysis budget (0 = strict §3).
	Lookahead int
	// Workers bounds Run's pool (≤ 0 = GOMAXPROCS).
	Workers int
	// Faults, when non-nil, adds the degraded-array invariants to every
	// approved scenario: fault-noop-equivalence (an all-factor-1 plan is
	// byte-identical to no plan) and degraded-completion (under the
	// periodic-only projection of the plan the run must still complete
	// — slowdowns delay, they never remove progress). Plans that do not
	// fit a scenario's cell/link counts are skipped for that scenario.
	Faults *fault.Plan
	// SeedFaults derives a per-scenario random fault plan
	// (gen.RandomFaults from the scenario seed) when Faults is nil —
	// the sysdl fuzz -faults knob.
	SeedFaults bool
	// LinkModels, when true, adds the link-timing invariants to every
	// approved scenario: linkmodel-noop-equivalence (a delay-1 fixed
	// plan is byte-identical to unit-latency execution) and
	// linkmodel-completion (an analyzer-approved configuration still
	// completes under a fixed slowdown and under congestion
	// backpressure — every shipped model is delay-only, so retiming
	// stretches schedules but never removes progress). This is the
	// sysdl fuzz -link-models knob.
	LinkModels bool
}

// The oracle's fixed run matrix: the two assignment disciplines
// Theorem 1 covers, and the Theorem 1 queue budget exactly and one
// above it.
var (
	policies = []core.PolicyKind{core.DynamicCompatible, core.StaticAssignment}
	slacks   = []int{0, 1}
)

// shrinkBudget caps the property evaluations spent minimizing one
// counterexample.
const shrinkBudget = 200

// capacities are the per-queue word capacities the oracle runs. With
// lookahead the §8 classification assumes queues can buffer the
// skipped writes, so they start at the lookahead budget (rule R2's
// assumption met).
func capacities(lookahead int) []int {
	if lookahead > 1 {
		return []int{lookahead, lookahead + 1}
	}
	return []int{1, 2}
}

// Finding is one oracle observation: an invariant violation, or (with
// Expected) an anticipated under-budget deadlock demonstrating that
// Theorem 1's bound is tight.
type Finding struct {
	// Seed regenerates the scenario (gen.Generate(Seed, opts.Gen)).
	Seed int64
	// Invariant names what was checked: "theorem1-completion",
	// "stream-equality", "stream-integrity", "label-consistency",
	// "under-budget-deadlock",
	// "analyze-error", "exec-error", "generate-error",
	// "fault-noop-equivalence", "degraded-completion",
	// "fault-exec-error", "fault-spec-roundtrip",
	// "linkmodel-noop-equivalence", "linkmodel-completion",
	// "linkmodel-exec-error".
	Invariant string
	// Expected marks anticipated findings (under-budget deadlocks);
	// everything else is a violation.
	Expected bool
	// Policy, Queues, MinQueues, Capacity identify the configuration.
	Policy    string
	Queues    int
	MinQueues int
	Capacity  int
	// Detail is a human-readable account (outcome, blocked cells, …).
	Detail string
	// Counterexample is the minimized program + topology in DSL form,
	// replayable with sysdl; empty when not applicable.
	Counterexample string
}

// String renders one finding, deterministically.
func (f Finding) String() string {
	var b strings.Builder
	kind := "VIOLATION"
	if f.Expected {
		kind = "counterexample"
	}
	fmt.Fprintf(&b, "%s seed=%d invariant=%s", kind, f.Seed, f.Invariant)
	if f.Policy != "" {
		fmt.Fprintf(&b, " policy=%s queues=%d (min %d) capacity=%d", f.Policy, f.Queues, f.MinQueues, f.Capacity)
	}
	fmt.Fprintf(&b, ": %s", f.Detail)
	if f.Counterexample != "" {
		b.WriteString("\n  minimized program:\n")
		for _, line := range strings.Split(strings.TrimRight(f.Counterexample, "\n"), "\n") {
			b.WriteString("    " + line + "\n")
		}
	}
	return b.String()
}

// Result is the oracle's verdict on one scenario.
type Result struct {
	Seed         int64
	Name         string
	DeadlockFree bool
	MinDynamic   int
	MinStatic    int
	// Runs counts simulations; Completed those that finished.
	Runs      int
	Completed int
	Findings  []Finding
}

// Violations returns the unexpected findings.
func (r Result) Violations() []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if !f.Expected {
			out = append(out, f)
		}
	}
	return out
}

// Check runs the full oracle on one scenario.
func Check(sc *gen.Scenario, opts Options) Result {
	res := Result{Seed: sc.Seed, Name: sc.Name}
	fail := func(f Finding) {
		f.Seed = sc.Seed
		res.Findings = append(res.Findings, f)
	}

	a, err := core.Analyze(sc.Program, sc.Topology, core.LookaheadOptions(opts.Lookahead))
	if err != nil {
		fail(Finding{Invariant: "analyze-error", Detail: err.Error()})
		return res
	}
	res.DeadlockFree = a.DeadlockFree
	if !a.DeadlockFree {
		// The analyzer rejected the program: Theorem 1 promises
		// nothing, so there is nothing to cross-check.
		return res
	}
	res.MinDynamic, res.MinStatic = a.MinQueuesDynamic, a.MinQueuesStatic

	// Invariant 3: the labeling must be consistent (§6) — checked
	// here independently of core.Analyze's internal verification.
	if err := label.Check(sc.Program, a.Labeling.ByMessage); err != nil {
		fail(Finding{Invariant: "label-consistency", Detail: err.Error()})
	}
	if err := label.CheckDense(sc.Program, a.Labeling.Dense); err != nil {
		fail(Finding{Invariant: "label-consistency", Detail: "dense ranks: " + err.Error()})
	}

	// Minimization runs up to shrinkBudget analyze+execute cycles per
	// finding, and Summary renders only a handful — so expected
	// under-budget findings are minimized for the first few per
	// scenario and merely recorded beyond that. Violations (the
	// findings that matter) are always minimized.
	expectedMinimized := 0
	const maxExpectedMinimized = 2

	for _, capacity := range capacities(opts.Lookahead) {
		// The first completed run at this capacity is the reference
		// stream every other completed run must reproduce
		// (invariant 2, strengthened across budgets).
		var refStream [][]machine.Word
		var refConfig string
		for _, pol := range policies {
			bound := a.MinQueues(pol)
			var budgets []int
			if opts.QueueOverride > 0 {
				budgets = []int{opts.QueueOverride}
			} else {
				for _, s := range slacks {
					budgets = append(budgets, max(bound+s, 1))
				}
			}
			for _, q := range budgets {
				r, err := execute(a, pol, q, capacity, &res, nil)
				cfg := Finding{Policy: pol.String(), Queues: q, MinQueues: bound, Capacity: capacity}
				if err != nil {
					if q < bound {
						// Below the bound a policy may cleanly refuse
						// to set up at all (static assignment needs a
						// queue per competing message) — that is the
						// bound enforced, not an oracle violation.
						cfg.Invariant = "under-budget-refusal"
						cfg.Expected = true
					} else {
						cfg.Invariant = "exec-error"
					}
					cfg.Detail = err.Error()
					fail(cfg)
					continue
				}
				switch {
				case r.Completed:
					if d := streamIntegrity(sc.Program, r.Received); d != "" {
						fail(cfg.as("stream-integrity", "%s", d))
					}
					// Invariant 2 is checked independently of the
					// synthetic expectation above: the first completed
					// run at this capacity is the reference every later
					// one (other policies, other budgets) must match
					// word for word, whatever the words are.
					if refStream == nil {
						refStream = r.Received
						refConfig = fmt.Sprintf("%s queues=%d", pol.String(), q)
					} else if d := streamDiff(refStream, r.Received); d != "" {
						fail(cfg.as("stream-equality", "stream differs from %s: %s", refConfig, d))
					}
				case q < bound:
					// Expected: below the Theorem 1 bound the paper
					// promises nothing; a deadlock here is the bound
					// shown tight, minimized for the report to a
					// program whose bound still exceeds q and that
					// still deadlocks at q.
					cfg = cfg.as("under-budget-deadlock", "%s after %d cycles: %s", r.Outcome(), r.Cycles,
						blockedCells(sc.Program, r.Blocked))
					cfg.Expected = true
					if expectedMinimized < maxExpectedMinimized {
						expectedMinimized++
						cfg.Counterexample = minimize(sc, opts, func(a *core.Analysis) bool {
							if a.MinQueues(pol) <= q {
								return false
							}
							r, err := execute(a, pol, q, capacity, nil, nil)
							return err == nil && r.Deadlocked
						})
					}
					fail(cfg)
				case opts.Lookahead > 0 && capacity < opts.Lookahead:
					// Expected: the §8 lookahead classification assumed
					// queues can buffer the skipped writes (rule R2);
					// running below that capacity breaks the
					// assumption just like an under-budgeted link.
					cfg = cfg.as("under-capacity-deadlock", "%s after %d cycles with capacity %d < lookahead budget %d: %s",
						r.Outcome(), r.Cycles, capacity, opts.Lookahead, blockedCells(sc.Program, r.Blocked))
					cfg.Expected = true
					fail(cfg)
				default:
					// Invariant 1 broken: approved program, approved
					// budget, and yet it did not complete. Minimized to
					// a program that still does not complete at its own
					// bound plus the same slack.
					cfg = cfg.as("theorem1-completion", "%s after %d cycles with queues=%d ≥ min=%d: %s",
						r.Outcome(), r.Cycles, q, bound, blockedCells(sc.Program, r.Blocked))
					cfg.Counterexample = minimize(sc, opts, func(a *core.Analysis) bool {
						r, err := execute(a, pol, max(a.MinQueues(pol)+q-bound, 1), capacity, nil, nil)
						return err == nil && !r.Completed
					})
					fail(cfg)
				}
			}
		}
	}
	faultChecks(sc, a, opts, &res, fail)
	if opts.LinkModels {
		// A fixed plan with delay 1 and no credit is unit timing in
		// disguise; every shipped model is delay-only.
		linkModelCondition.check(sc, a, opts, &res, fail,
			linkmodel.FixedPlan(1, 0), linkmodel.FixedPlan(3, 0), linkmodel.CongestionPlan(1, 2, 4))
	}
	return res
}

// as returns f as a finding of invariant with the formatted detail.
func (f Finding) as(invariant, format string, args ...any) Finding {
	f.Invariant, f.Detail = invariant, fmt.Sprintf(format, args...)
	return f
}

// execute is the oracle's one way to run: a under pol at q queues per
// link and the given capacity, forced so that an under-budget
// configuration is observed instead of refused. set, when non-nil, adds
// a run-time condition to the options. A non-nil res counts the run,
// and counts it completed when it is; the shrinker's trial runs pass
// nil.
func execute(a *core.Analysis, pol core.PolicyKind, q, capacity int, res *Result, set func(*core.ExecOptions)) (*machine.Result, error) {
	o := core.ExecOptions{Policy: pol, QueuesPerLink: q, Capacity: capacity, Force: true}
	if set != nil {
		set(&o)
	}
	r, err := core.Execute(a, o)
	if res != nil {
		res.Runs++
		if err == nil && r.Completed {
			res.Completed++
		}
	}
	return r, err
}

// condition is a run-time condition the oracle stresses approved
// scenarios with — a fault plan or a link model — and the names its
// findings use.
type condition[P fmt.Stringer] struct {
	invariant  string // prefix of "-noop-equivalence" and "-exec-error"
	noop       string // the no-op plan
	clean      string // the run without the condition
	stressed   string // a stressed plan
	completion string // the invariant a stressed plan that stalls breaks
	set        func(*core.ExecOptions, P)
}

var (
	faultCondition = condition[*fault.Plan]{
		invariant: "fault", noop: "factor-1 plan", clean: "fault-free run",
		stressed: "periodic plan", completion: "degraded-completion",
		set: func(o *core.ExecOptions, p *fault.Plan) { o.Faults = p },
	}
	linkModelCondition = condition[*linkmodel.Plan]{
		invariant: "linkmodel", noop: "delay-1 plan", clean: "unit-latency run",
		stressed: "model", completion: "linkmodel-completion",
		set: func(o *core.ExecOptions, p *linkmodel.Plan) { o.LinkModel = p },
	}
)

// conditionConfig is the one configuration the run-time conditions are
// checked at, after the main matrix: the first policy and capacity, at
// exactly the Theorem 1 budget, so a violation pins the condition, not
// a budget.
func conditionConfig(a *core.Analysis, opts Options) Finding {
	pol := policies[0]
	return Finding{Policy: pol.String(), Queues: max(a.MinQueues(pol), 1), MinQueues: a.MinQueues(pol),
		Capacity: capacities(opts.Lookahead)[0]}
}

// check runs the condition's two invariants on one approved scenario:
// the no-op plan must match the run without the condition (the same
// error outcome, DeepEqual results), and every stressed plan must still
// complete — the condition delays progress but never removes it.
func (c condition[P]) check(sc *gen.Scenario, a *core.Analysis, opts Options, res *Result, fail func(Finding), noop P, stressed ...P) {
	cfg := conditionConfig(a, opts)
	pol := policies[0]
	with := func(p P) func(*core.ExecOptions) {
		return func(o *core.ExecOptions) { c.set(o, p) }
	}
	clean, cleanErr := execute(a, pol, cfg.Queues, cfg.Capacity, res, nil)
	rNoop, noopErr := execute(a, pol, cfg.Queues, cfg.Capacity, res, with(noop))
	switch {
	case (cleanErr == nil) != (noopErr == nil):
		fail(cfg.as(c.invariant+"-noop-equivalence", "%s changed the error outcome: %v vs %v", c.noop, noopErr, cleanErr))
	case cleanErr == nil && !reflect.DeepEqual(clean, rNoop):
		fail(cfg.as(c.invariant+"-noop-equivalence", "%s diverged from %s: %s vs %s after %d vs %d cycles",
			c.noop, c.clean, rNoop.Outcome(), clean.Outcome(), rNoop.Cycles, clean.Cycles))
	}
	for _, p := range stressed {
		switch r, err := execute(a, pol, cfg.Queues, cfg.Capacity, res, with(p)); {
		case err != nil:
			fail(cfg.as(c.invariant+"-exec-error", "%s %s: %v", c.stressed, p, err))
		case !r.Completed:
			fail(cfg.as(c.completion, "%s after %d cycles under %s %s: %s",
				r.Outcome(), r.Cycles, c.stressed, p, blockedCells(sc.Program, r.Blocked)))
		}
	}
}

// faultChecks runs the degraded-array invariants on one approved
// scenario: it picks the plan, checks that its spec round-trips, and
// stresses the scenario with the plan's periodic-only projection.
func faultChecks(sc *gen.Scenario, a *core.Analysis, opts Options, res *Result, fail func(Finding)) {
	numCells := sc.Program.NumCells()
	numLinks := len(sc.Topology.Links())
	plan := opts.Faults
	if plan == nil && opts.SeedFaults {
		plan = gen.RandomFaults(sc.Seed, numCells, numLinks, gen.FaultOptions{})
	}
	if plan.IsNoop() {
		return
	}
	if plan.Validate(numCells, numLinks) != nil {
		// An explicit plan sized for a different array; nothing to
		// check on this scenario.
		return
	}

	// Invariant: the plan's canonical spec re-parses to the same plan
	// (fault-spec-roundtrip). Every seeded plan replays through the
	// grammar the CLI and wire share, so the corpus covers its edge
	// cases: @0 effective-froms canonicalize to no suffix, and a valid
	// plan can never trip the duplicate-target parse error.
	cfg := conditionConfig(a, opts)
	spec := plan.String()
	switch rt, err := fault.ParseSpec(spec); {
	case err != nil:
		fail(cfg.as("fault-spec-roundtrip", "canonical spec %q failed to re-parse: %v", spec, err))
	case rt.String() != spec:
		fail(cfg.as("fault-spec-roundtrip", "canonical spec %q re-parsed to %q", spec, rt.String()))
	}

	// The no-op plan slows every cell by a factor of 1. The stressed
	// plan is the periodic-only projection of the plan: dead cells and
	// severed links weakened to factor-3 slowdowns.
	noop := &fault.Plan{}
	for c := 0; c < numCells; c++ {
		noop.Cells = append(noop.Cells, fault.CellFault{Cell: model.CellID(c), Factor: 1})
	}
	periodic := &fault.Plan{}
	for _, c := range plan.Cells {
		if c.Dead {
			c.Dead, c.Factor = false, 3
		}
		if c.Factor > 1 {
			periodic.Cells = append(periodic.Cells, c)
		}
	}
	for _, l := range plan.Links {
		if l.Severed {
			l.Severed, l.Factor = false, 3
		}
		if l.Factor > 1 {
			periodic.Links = append(periodic.Links, l)
		}
	}
	faultCondition.check(sc, a, opts, res, fail, noop, periodic)
}

// streamIntegrity checks every received word against the synthetic
// encoding (message id, word index) — FIFO order per message with no
// loss, duplication, or cross-wiring. Empty string = intact.
func streamIntegrity(p *model.Program, received [][]machine.Word) string {
	for _, m := range p.Messages() {
		ws := received[m.ID]
		if len(ws) != m.Words {
			return fmt.Sprintf("message %s delivered %d of %d words", m.Name, len(ws), m.Words)
		}
		for i, w := range ws {
			if want := queue.Word(float64(m.ID)*1e6 + float64(i)); w != want {
				return fmt.Sprintf("message %s word %d = %v, want %v (reordered or cross-wired)", m.Name, i, w, want)
			}
		}
	}
	return ""
}

// streamDiff compares two complete delivery records. Empty string =
// identical.
func streamDiff(a, b [][]machine.Word) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d vs %d messages", len(a), len(b))
	}
	for m := range a {
		if len(a[m]) != len(b[m]) {
			return fmt.Sprintf("message %d: %d vs %d words", m, len(a[m]), len(b[m]))
		}
		for i := range a[m] {
			if a[m][i] != b[m][i] {
				return fmt.Sprintf("message %d word %d: %v vs %v", m, i, a[m][i], b[m][i])
			}
		}
	}
	return ""
}

// blockedCells renders the stuck-cell set of a deadlock report.
func blockedCells(p *model.Program, blocked []machine.CellBlock) string {
	if len(blocked) == 0 {
		return "no blocked cells recorded"
	}
	parts := make([]string, len(blocked))
	for i, cb := range blocked {
		parts[i] = fmt.Sprintf("%s@%s", p.Cell(cb.Cell).Name, p.OpString(cb.Op))
	}
	return "blocked: " + strings.Join(parts, " ")
}

// Report is the order-stable outcome of a batch run.
type Report struct {
	N        int
	BaseSeed int64
	Results  []Result
}

// Run generates and checks n scenarios with seeds seed, seed+1, …,
// seed+n-1 across a bounded worker pool (reusing the sweep engine's
// pool discipline). Replaying any reported finding needs only its
// scenario seed: Run(ctx, 1, thatSeed, opts).
func Run(ctx context.Context, n int, seed int64, opts Options) (*Report, error) {
	if n <= 0 {
		return nil, fmt.Errorf("diff: n %d < 1", n)
	}
	results := make([]Result, n)
	err := sweep.ForEach(ctx, n, opts.Workers, func(i int) {
		s := seed + int64(i)
		sc, gerr := gen.Generate(s, opts.Gen)
		if gerr != nil {
			results[i] = Result{Seed: s, Findings: []Finding{{
				Seed: s, Invariant: "generate-error", Detail: gerr.Error(),
			}}}
			return
		}
		results[i] = Check(sc, opts)
	})
	if err != nil {
		return nil, err
	}
	return &Report{N: n, BaseSeed: seed, Results: results}, nil
}

// Violations returns every unexpected finding, in scenario order.
func (r *Report) Violations() []Finding {
	var out []Finding
	for _, res := range r.Results {
		out = append(out, res.Violations()...)
	}
	return out
}

// Counterexamples returns the expected under-budget findings, in
// scenario order.
func (r *Report) Counterexamples() []Finding {
	var out []Finding
	for _, res := range r.Results {
		for _, f := range res.Findings {
			if f.Expected {
				out = append(out, f)
			}
		}
	}
	return out
}

// maxRendered bounds how many findings of each kind Summary prints in
// full; the rest are counted. Rendering stays deterministic either way.
const maxRendered = 5

// Summary renders the report. Equal reports produce byte-identical
// text for any worker count.
func (r *Report) Summary() string {
	var b strings.Builder
	free, rejected, runs, completed := 0, 0, 0, 0
	for _, res := range r.Results {
		if res.DeadlockFree {
			free++
		} else {
			rejected++
		}
		runs += res.Runs
		completed += res.Completed
	}
	viols := r.Violations()
	cexs := r.Counterexamples()
	// Render the minimized deadlock demonstrations ahead of plain
	// policy refusals — they carry the replayable programs.
	var ordered []Finding
	for _, f := range cexs {
		if f.Counterexample != "" {
			ordered = append(ordered, f)
		}
	}
	for _, f := range cexs {
		if f.Counterexample == "" {
			ordered = append(ordered, f)
		}
	}
	cexs = ordered
	fmt.Fprintf(&b, "differential oracle: %d scenarios, seeds %d..%d\n", r.N, r.BaseSeed, r.BaseSeed+int64(r.N)-1)
	fmt.Fprintf(&b, "  deadlock-free: %d   rejected: %d   simulations: %d   completed: %d\n",
		free, rejected, runs, completed)
	fmt.Fprintf(&b, "  invariant violations: %d   expected counterexamples: %d\n", len(viols), len(cexs))
	renderFindings(&b, "violations", viols)
	renderFindings(&b, "under-budget counterexamples", cexs)
	return b.String()
}

func renderFindings(b *strings.Builder, title string, fs []Finding) {
	if len(fs) == 0 {
		return
	}
	fmt.Fprintf(b, "\n%s:\n", title)
	for i, f := range fs {
		if i == maxRendered {
			fmt.Fprintf(b, "… and %d more (replay any finding by rerunning with the same flags plus -n 1 -seed <its seed>)\n", len(fs)-maxRendered)
			break
		}
		b.WriteString(f.String())
		if !strings.HasSuffix(f.String(), "\n") {
			b.WriteString("\n")
		}
	}
}

// minimize shrinks sc's program to a small one the analyzer still
// approves and keep still accepts, and renders it in DSL form.
func minimize(sc *gen.Scenario, opts Options, keep func(*core.Analysis) bool) string {
	p := shrink(sc.Program, shrinkBudget, func(q *model.Program) bool {
		a, err := core.Analyze(q, sc.Topology, core.LookaheadOptions(opts.Lookahead))
		return err == nil && a.DeadlockFree && keep(a)
	})
	return dsl.Format(p, sc.Topology)
}

// shrink greedily minimizes a program while keep holds: it first
// drops whole messages, then trims trailing words, restarting after
// every success, until a fixed point or the evaluation budget runs
// out. keep(p) must be true on entry; the result always satisfies it.
func shrink(p *model.Program, budget int, keep func(*model.Program) bool) *model.Program {
	evals := 0
	spent := func(q *model.Program) bool {
		evals++
		return evals <= budget && keep(q)
	}
	for {
		improved := false
		for m := 0; m < p.NumMessages(); m++ {
			q, err := dropMessage(p, model.MessageID(m))
			if err != nil {
				continue
			}
			if spent(q) {
				p, improved = q, true
				break
			}
			if evals > budget {
				return p
			}
		}
		if improved {
			continue
		}
		for m := 0; m < p.NumMessages(); m++ {
			if p.Message(model.MessageID(m)).Words < 2 {
				continue
			}
			q, err := trimWord(p, model.MessageID(m))
			if err != nil {
				continue
			}
			if spent(q) {
				p, improved = q, true
				break
			}
			if evals > budget {
				return p
			}
		}
		if !improved {
			return p
		}
	}
}

// dropMessage rebuilds p without message mid, the rest renumbered.
func dropMessage(p *model.Program, mid model.MessageID) (*model.Program, error) {
	return model.Rebuild(p, func(m model.Message) int {
		if m.ID == mid {
			return 0
		}
		return m.Words
	}, nil)
}

// trimWord rebuilds p with message mid one word shorter: its declared
// count drops by one and the last W and last R on it disappear.
func trimWord(p *model.Program, mid model.MessageID) (*model.Program, error) {
	return model.Rebuild(p, func(m model.Message) int {
		if m.ID == mid {
			return m.Words - 1
		}
		return m.Words
	}, func(c model.CellID) []model.Op {
		code := p.Code(c)
		for i := len(code) - 1; i >= 0; i-- {
			if code[i].Msg == mid {
				return append(code[:i:i], code[i+1:]...)
			}
		}
		return code
	})
}
