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
	"systolic/internal/crossoff"
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

	a, err := core.Analyze(sc.Program, sc.Topology, analyzeOptions(opts))
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
			min := a.MinQueues(pol)
			var budgets []int
			if opts.QueueOverride > 0 {
				budgets = []int{opts.QueueOverride}
			} else {
				for _, s := range slacks {
					q := min + s
					if q < 1 {
						q = 1
					}
					budgets = append(budgets, q)
				}
			}
			for _, q := range budgets {
				r, err := core.Execute(a, core.ExecOptions{
					Policy:        pol,
					QueuesPerLink: q,
					Capacity:      capacity,
					Force:         true, // observe under-budget deadlocks instead of refusing
				})
				res.Runs++
				cfg := Finding{Policy: pol.String(), Queues: q, MinQueues: min, Capacity: capacity}
				if err != nil {
					if q < min {
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
					res.Completed++
					if d := streamIntegrity(sc.Program, r.Received); d != "" {
						cfg.Invariant = "stream-integrity"
						cfg.Detail = d
						fail(cfg)
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
						cfg.Invariant = "stream-equality"
						cfg.Detail = fmt.Sprintf("stream differs from %s: %s", refConfig, d)
						fail(cfg)
					}
				case q < min:
					// Expected: below the Theorem 1 bound the paper
					// promises nothing; a deadlock here is the bound
					// shown tight, minimized for the report.
					cfg.Invariant = "under-budget-deadlock"
					cfg.Expected = true
					cfg.Detail = fmt.Sprintf("%s after %d cycles: %s", r.Outcome(), r.Cycles,
						blockedCells(sc.Program, r.Blocked))
					if expectedMinimized < maxExpectedMinimized {
						expectedMinimized++
						cfg.Counterexample = minimizeUnderBudget(sc, opts, pol, q, capacity)
					}
					fail(cfg)
				case opts.Lookahead > 0 && capacity < opts.Lookahead:
					// Expected: the §8 lookahead classification assumed
					// queues can buffer the skipped writes (rule R2);
					// running below that capacity breaks the
					// assumption just like an under-budgeted link.
					cfg.Invariant = "under-capacity-deadlock"
					cfg.Expected = true
					cfg.Detail = fmt.Sprintf("%s after %d cycles with capacity %d < lookahead budget %d: %s",
						r.Outcome(), r.Cycles, capacity, opts.Lookahead, blockedCells(sc.Program, r.Blocked))
					fail(cfg)
				default:
					// Invariant 1 broken: approved program, approved
					// budget, and yet it did not complete.
					cfg.Invariant = "theorem1-completion"
					cfg.Detail = fmt.Sprintf("%s after %d cycles with queues=%d ≥ min=%d: %s",
						r.Outcome(), r.Cycles, q, min, blockedCells(sc.Program, r.Blocked))
					cfg.Counterexample = minimizeCompletion(sc, opts, pol, q-min, capacity)
					fail(cfg)
				}
			}
		}
	}
	faultChecks(sc, a, opts, &res, fail)
	linkModelChecks(sc, a, opts, &res, fail)
	return res
}

// linkModelChecks runs the link-timing invariants on one approved
// scenario, after the main matrix, at one configuration: the first
// policy and capacity, at exactly the Theorem 1 budget — the same
// regime faultChecks uses, so a violation pins timing, not budgets.
func linkModelChecks(sc *gen.Scenario, a *core.Analysis, opts Options, res *Result, fail func(Finding)) {
	if !opts.LinkModels {
		return
	}
	pol := policies[0]
	capacity := capacities(opts.Lookahead)[0]
	q := a.MinQueues(pol)
	if q < 1 {
		q = 1
	}
	cfg := Finding{Policy: pol.String(), Queues: q, MinQueues: a.MinQueues(pol), Capacity: capacity}
	exec := func(p *linkmodel.Plan) (*machine.Result, error) {
		res.Runs++
		r, err := core.Execute(a, core.ExecOptions{
			Policy:        pol,
			QueuesPerLink: q,
			Capacity:      capacity,
			LinkModel:     p,
			Force:         true,
		})
		if err == nil && r.Completed {
			res.Completed++
		}
		return r, err
	}

	// Invariant: a fixed plan with delay 1 and no credit is unit timing
	// in disguise — it must be byte-identical to running with no model.
	clean, cleanErr := exec(nil)
	rNoop, noopErr := exec(linkmodel.FixedPlan(1, 0))
	switch {
	case (cleanErr == nil) != (noopErr == nil):
		f := cfg
		f.Invariant = "linkmodel-noop-equivalence"
		f.Detail = fmt.Sprintf("delay-1 plan changed the error outcome: %v vs %v", noopErr, cleanErr)
		fail(f)
	case cleanErr == nil && !reflect.DeepEqual(clean, rNoop):
		f := cfg
		f.Invariant = "linkmodel-noop-equivalence"
		f.Detail = fmt.Sprintf("delay-1 plan diverged from unit-latency run: %s vs %s after %d vs %d cycles",
			rNoop.Outcome(), clean.Outcome(), rNoop.Cycles, clean.Cycles)
		fail(f)
	}

	// Invariant: every shipped model is delay-only, so an
	// analyzer-approved configuration must still complete under it.
	for _, plan := range []*linkmodel.Plan{
		linkmodel.FixedPlan(3, 0),
		linkmodel.CongestionPlan(1, 2, 4),
	} {
		r1, err1 := exec(plan)
		switch {
		case err1 != nil:
			f := cfg
			f.Invariant = "linkmodel-exec-error"
			f.Detail = fmt.Sprintf("model %s: %v", plan, err1)
			fail(f)
		case !r1.Completed:
			f := cfg
			f.Invariant = "linkmodel-completion"
			f.Detail = fmt.Sprintf("%s after %d cycles under model %s: %s",
				r1.Outcome(), r1.Cycles, plan, blockedCells(sc.Program, r1.Blocked))
			fail(f)
		}
	}
}

// faultChecks runs the degraded-array invariants on one approved
// scenario, after the main matrix, at one configuration: the first
// policy and capacity, at exactly the Theorem 1 budget.
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
	pol := policies[0]
	capacity := capacities(opts.Lookahead)[0]
	q := a.MinQueues(pol)
	if q < 1 {
		q = 1
	}
	cfg := Finding{Policy: pol.String(), Queues: q, MinQueues: a.MinQueues(pol), Capacity: capacity}

	// Invariant: the plan's canonical spec re-parses to the same plan
	// (fault-spec-roundtrip). Every seeded plan replays through the
	// grammar the CLI and wire share, so the corpus covers its edge
	// cases: @0 effective-froms canonicalize to no suffix, and a valid
	// plan can never trip the duplicate-target parse error.
	spec := plan.String()
	switch rt, err := fault.ParseSpec(spec); {
	case err != nil:
		f := cfg
		f.Invariant = "fault-spec-roundtrip"
		f.Detail = fmt.Sprintf("canonical spec %q failed to re-parse: %v", spec, err)
		fail(f)
	case rt.String() != spec:
		f := cfg
		f.Invariant = "fault-spec-roundtrip"
		f.Detail = fmt.Sprintf("canonical spec %q re-parsed to %q", spec, rt.String())
		fail(f)
	}
	exec := func(p *fault.Plan) (*machine.Result, error) {
		res.Runs++
		r, err := core.Execute(a, core.ExecOptions{
			Policy:        pol,
			QueuesPerLink: q,
			Capacity:      capacity,
			Faults:        p,
			Force:         true,
		})
		if err == nil && r.Completed {
			res.Completed++
		}
		return r, err
	}

	// Invariant: a plan whose every fault is a factor-1 no-op must be
	// byte-identical to running with no plan at all.
	noop := &fault.Plan{}
	for c := 0; c < numCells; c++ {
		noop.Cells = append(noop.Cells, fault.CellFault{Cell: model.CellID(c), Factor: 1})
	}
	clean, cleanErr := exec(nil)
	rNoop, noopErr := exec(noop)
	switch {
	case (cleanErr == nil) != (noopErr == nil):
		f := cfg
		f.Invariant = "fault-noop-equivalence"
		f.Detail = fmt.Sprintf("factor-1 plan changed the error outcome: %v vs %v", noopErr, cleanErr)
		fail(f)
	case cleanErr == nil && !reflect.DeepEqual(clean, rNoop):
		f := cfg
		f.Invariant = "fault-noop-equivalence"
		f.Detail = fmt.Sprintf("factor-1 plan diverged from fault-free run: %s vs %s after %d vs %d cycles",
			rNoop.Outcome(), clean.Outcome(), rNoop.Cycles, clean.Cycles)
		fail(f)
	}

	// Invariant: under the periodic-only projection of the plan (dead
	// cells and severed links weakened to factor-3 slowdowns) an
	// analyzer-approved configuration must still complete — periodic
	// faults delay progress but can never remove it.
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
	rp, perr := exec(periodic)
	switch {
	case perr != nil:
		f := cfg
		f.Invariant = "fault-exec-error"
		f.Detail = fmt.Sprintf("periodic plan %s: %v", periodic, perr)
		fail(f)
	case !rp.Completed:
		f := cfg
		f.Invariant = "degraded-completion"
		f.Detail = fmt.Sprintf("%s after %d cycles under periodic plan %s: %s",
			rp.Outcome(), rp.Cycles, periodic, blockedCells(sc.Program, rp.Blocked))
		fail(f)
	}
}

// analyzeOptions maps oracle options onto the analyzer's.
func analyzeOptions(opts Options) core.AnalyzeOptions {
	ao := core.AnalyzeOptions{}
	if opts.Lookahead > 0 {
		ao.Lookahead = true
		ao.BudgetOverride = crossoff.UniformBudget(opts.Lookahead)
	}
	return ao
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

// minimizeCompletion shrinks a scenario that broke invariant 1: the
// property preserved is "analyzer approves, yet execution at the
// Theorem 1 budget plus slack does not complete".
func minimizeCompletion(sc *gen.Scenario, opts Options, pol core.PolicyKind, slack, capacity int) string {
	p := shrink(sc.Program, shrinkBudget, func(q *model.Program) bool {
		a, err := core.Analyze(q, sc.Topology, analyzeOptions(opts))
		if err != nil || !a.DeadlockFree {
			return false
		}
		budget := a.MinQueues(pol) + slack
		if budget < 1 {
			budget = 1
		}
		r, err := core.Execute(a, core.ExecOptions{
			Policy: pol, QueuesPerLink: budget, Capacity: capacity, Force: true,
		})
		return err == nil && !r.Completed
	})
	return dsl.Format(p, sc.Topology)
}

// minimizeUnderBudget shrinks an expected counterexample: the property
// preserved is "analyzer approves, the Theorem 1 bound exceeds the
// forced budget, and execution at that budget deadlocks".
func minimizeUnderBudget(sc *gen.Scenario, opts Options, pol core.PolicyKind, q, capacity int) string {
	p := shrink(sc.Program, shrinkBudget, func(candidate *model.Program) bool {
		a, err := core.Analyze(candidate, sc.Topology, analyzeOptions(opts))
		if err != nil || !a.DeadlockFree || a.MinQueues(pol) <= q {
			return false
		}
		r, err := core.Execute(a, core.ExecOptions{
			Policy: pol, QueuesPerLink: q, Capacity: capacity, Force: true,
		})
		return err == nil && r.Deadlocked
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

// dropMessage rebuilds p without message mid (ops removed, remaining
// message ids renumbered).
func dropMessage(p *model.Program, mid model.MessageID) (*model.Program, error) {
	b := model.NewBuilder()
	for _, c := range p.Cells() {
		if c.Host {
			b.AddHost(c.Name)
		} else {
			b.AddCell(c.Name)
		}
	}
	remap := make([]model.MessageID, p.NumMessages())
	for _, m := range p.Messages() {
		if m.ID == mid {
			continue
		}
		remap[m.ID] = b.DeclareMessage(m.Name, m.Sender, m.Receiver, m.Words)
	}
	for c := 0; c < p.NumCells(); c++ {
		for _, op := range p.Code(model.CellID(c)) {
			if op.Msg != mid {
				b.AppendOps(model.CellID(c), []model.Op{{Kind: op.Kind, Msg: remap[op.Msg]}})
			}
		}
	}
	return b.Build()
}

// trimWord rebuilds p with message mid one word shorter: its declared
// count drops by one and the last W and last R on it disappear.
func trimWord(p *model.Program, mid model.MessageID) (*model.Program, error) {
	b := model.NewBuilder()
	for _, c := range p.Cells() {
		if c.Host {
			b.AddHost(c.Name)
		} else {
			b.AddCell(c.Name)
		}
	}
	for _, m := range p.Messages() {
		words := m.Words
		if m.ID == mid {
			words--
		}
		b.DeclareMessage(m.Name, m.Sender, m.Receiver, words)
	}
	for c := 0; c < p.NumCells(); c++ {
		code := p.Code(model.CellID(c))
		lastIdx := -1
		for i, op := range code {
			if op.Msg == mid {
				lastIdx = i
			}
		}
		if lastIdx < 0 {
			b.AppendOps(model.CellID(c), code)
			continue
		}
		b.AppendOps(model.CellID(c), code[:lastIdx]).AppendOps(model.CellID(c), code[lastIdx+1:])
	}
	return b.Build()
}
