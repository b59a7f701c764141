// Package core assembles the paper's deadlock-avoidance strategy into
// one engine (§9's three major steps):
//
//  1. ensure the program is deadlock-free (crossing-off, §3, optionally
//     with §8 lookahead);
//  2. ensure a consistent labeling of its messages (§6);
//  3. ensure a compatible assignment of queues at run time (§7),
//     sized so Theorem 1's assumption (ii) holds.
//
// Analyze performs steps 1–2 and computes the queue requirements;
// Execute performs step 3 inside the simulator. A completed Execute on
// an Analyze-approved configuration is Theorem 1 made operational.
package core

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"systolic/internal/assign"
	"systolic/internal/crossoff"
	"systolic/internal/fault"
	"systolic/internal/label"
	"systolic/internal/linkmodel"
	"systolic/internal/machine"
	"systolic/internal/model"
	"systolic/internal/topology"
	"systolic/internal/verify"
)

// OptionError is a typed rejection of an invalid Analyze or Execute
// option: machine-generated configurations (the differential oracle,
// the sweep engine) distinguish a bad option from a genuine engine
// failure with errors.As. Execute raises it only for what core alone
// can judge (see lower); every other run option is validated once, by
// the machine, as a *machine.ConfigError. Either way the rejection
// comes before any run state is built, never as a panic.
type OptionError struct {
	// Op is "Analyze" or "Execute".
	Op string
	// Field names the offending option.
	Field string
	// Reason says what was wrong with it.
	Reason string
}

// Error renders the rejection.
func (e *OptionError) Error() string {
	return fmt.Sprintf("core: %s: option %s: %s", e.Op, e.Field, e.Reason)
}

// AnalyzeOptions configures compile-time analysis.
type AnalyzeOptions struct {
	// Lookahead admits programs that need queue buffering (§8). The
	// skip budget is derived from Capacity and each message's route
	// (rule R2) unless BudgetOverride is set.
	Lookahead bool
	// Capacity is the per-queue word capacity assumed by rule R2 when
	// Lookahead is on.
	Capacity int
	// BudgetOverride replaces the derived R2 budget.
	BudgetOverride func(model.MessageID) int
	// Picker overrides the crossing-off pair choice.
	Picker crossoff.PairPicker
}

// Analysis is the compile-time artifact: classification, labeling, and
// queue requirements for a (program, topology) pair.
type Analysis struct {
	Program  *model.Program
	Topology topology.Topology
	Routes   [][]topology.Hop

	// DeadlockFree reports the classification under the requested
	// options; Strict reports the no-lookahead classification (always
	// computed, for reporting).
	DeadlockFree bool
	Strict       bool
	// Blocked describes the stalled fronts when not DeadlockFree.
	Blocked []crossoff.BlockedOp

	// Labeling is the §6 result (only when DeadlockFree).
	Labeling label.Labeling
	// MinQueuesDynamic is the queues-per-link required by the dynamic
	// compatible policy (largest equal-label competing group);
	// MinQueuesStatic is the requirement for the static policy
	// (largest competing set).
	MinQueuesDynamic int
	MinQueuesStatic  int

	// machineOnce caches the compiled machine: one Analysis serves
	// unlimited Execute calls (the sweep grid, the oracle's policy ×
	// budget × capacity matrix) off a single compile.
	machineOnce sync.Once
	machine     *machine.Machine
	machineErr  error
}

// Machine returns the compiled execution machine for this analysis,
// compiling it on first use and caching it thereafter. The machine is
// immutable and safe for concurrent Execute calls; everything a run
// can vary (policy, queue budget, capacity, logic) is chosen per run.
func (a *Analysis) Machine() (*machine.Machine, error) {
	a.machineOnce.Do(func() {
		a.machine, a.machineErr = machine.Compile(a.Program, a.Topology, a.Routes, a.Labeling.Dense)
	})
	return a.machine, a.machineErr
}

// SameMachine reports whether a and b, two deadlock-free analyses of
// one (program, topology) pair, compile to interchangeable machines:
// besides the pair itself, Machine reads only the routes and the dense
// labels, so when those compare equal every run on one machine is
// byte-identical to the same run on the other. The sweep engine uses
// this to run a case's lookahead columns on one machine when the budget
// changed nothing.
func (a *Analysis) SameMachine(b *Analysis) bool {
	return slices.Equal(a.Labeling.Dense, b.Labeling.Dense) &&
		slices.EqualFunc(a.Routes, b.Routes, slices.Equal[[]topology.Hop])
}

// Analyze classifies, labels, and sizes a program over a topology.
// A non-deadlock-free program yields an Analysis with DeadlockFree
// false and no labeling, not an error; errors are reserved for
// configuration problems (e.g. unroutable messages).
func Analyze(p *model.Program, t topology.Topology, opts AnalyzeOptions) (*Analysis, error) {
	if p == nil {
		return nil, &OptionError{Op: "Analyze", Field: "Program", Reason: "nil program"}
	}
	if t == nil {
		return nil, &OptionError{Op: "Analyze", Field: "Topology", Reason: "nil topology"}
	}
	if opts.Capacity < 0 {
		return nil, &OptionError{Op: "Analyze", Field: "Capacity", Reason: fmt.Sprintf("negative capacity %d", opts.Capacity)}
	}
	routes, err := topology.Routes(p, t)
	if err != nil {
		return nil, err
	}
	a := &Analysis{Program: p, Topology: t, Routes: routes}

	budget := opts.BudgetOverride
	if budget == nil && opts.Lookahead {
		budget = crossoff.BudgetFromRoutes(routes, opts.Capacity)
	}
	// One crossing-off pass answers everything: label.Run attaches the
	// §6 labeler to it as the observer, so the verdict, the blocked
	// fronts and the labeling all come from the same pick sequence.
	res, lab := label.Run(p, label.Options{
		Lookahead: opts.Lookahead,
		Budget:    budget,
		Picker:    opts.Picker,
	})
	if opts.Lookahead {
		a.Strict = crossoff.Classify(p, crossoff.Options{Picker: opts.Picker})
	} else {
		// Without lookahead the main run IS the strict classification
		// (Budget is ignored when Lookahead is off), so don't cross off
		// the whole program a second time.
		a.Strict = res.DeadlockFree
	}
	a.DeadlockFree = res.DeadlockFree
	a.Blocked = res.Blocked
	if !a.DeadlockFree {
		return a, nil
	}
	if err := checkFallback(p, lab); err != nil {
		return nil, err
	}
	a.Labeling = lab

	rep := verify.CheckPreconditionsRoutes(routes, lab.Dense, 1<<30)
	a.MinQueuesDynamic = rep.MaxGroup
	a.MinQueuesStatic = rep.MaxCompeting
	return a, nil
}

// checkFallback checks the consistency of a labeling that the §6
// scheme did not produce. The greedy scheme's labels reach Analyze only
// once the labeler has found them consistent on these very ranks; the
// order-based fallback, which carries the fallback note (the only
// warning a labeling has), is checked here.
func checkFallback(p *model.Program, lab label.Labeling) error {
	if len(lab.Warnings) == 0 {
		return nil
	}
	if err := label.CheckDense(p, lab.Dense); err != nil {
		return fmt.Errorf("core: labeling scheme produced an inconsistent labeling: %w", err)
	}
	return nil
}

// PolicyKind selects the run-time assignment discipline.
type PolicyKind int

const (
	// DynamicCompatible is the §7.2 ordered/simultaneous policy.
	DynamicCompatible PolicyKind = iota
	// StaticAssignment is the §7.1 one-queue-per-message policy.
	StaticAssignment
	// NaiveFCFS, NaiveLIFO, NaiveRandom, NaiveAdversarial are the
	// label-oblivious baselines (the discipline Figs 7–9 warn about).
	NaiveFCFS
	NaiveLIFO
	NaiveRandom
	NaiveAdversarial
)

// String names the policy kind.
func (k PolicyKind) String() string {
	switch k {
	case DynamicCompatible:
		return "dynamic-compatible"
	case StaticAssignment:
		return "static"
	case NaiveFCFS:
		return "naive-fcfs"
	case NaiveLIFO:
		return "naive-lifo"
	case NaiveRandom:
		return "naive-random"
	case NaiveAdversarial:
		return "naive-adversarial"
	}
	return fmt.Sprintf("policy(%d)", int(k))
}

// ParsePolicy maps a policy name — the spelling the CLI flags and the
// serving layer's wire format share — to its PolicyKind. Both the
// short flag names ("compatible", "fcfs") and the PolicyKind.String()
// forms ("dynamic-compatible", "naive-fcfs") are accepted, so a
// rendered report row can be pasted back into a request.
func ParsePolicy(name string) (PolicyKind, error) {
	switch name {
	case "compatible", "dynamic-compatible":
		return DynamicCompatible, nil
	case "static":
		return StaticAssignment, nil
	case "fcfs", "naive-fcfs":
		return NaiveFCFS, nil
	case "lifo", "naive-lifo":
		return NaiveLIFO, nil
	case "random", "naive-random":
		return NaiveRandom, nil
	case "adversarial", "naive-adversarial":
		return NaiveAdversarial, nil
	}
	return 0, &OptionError{Op: "Execute", Field: "Policy", Reason: fmt.Sprintf("unknown policy %q (want compatible|static|fcfs|lifo|random|adversarial)", name)}
}

// policy instantiates the assign.Policy for a kind.
func (k PolicyKind) policy(seed int64) assign.Policy {
	switch k {
	case DynamicCompatible:
		return assign.Compatible()
	case StaticAssignment:
		return assign.Static()
	case NaiveFCFS:
		return assign.Naive(assign.FCFS, seed)
	case NaiveLIFO:
		return assign.Naive(assign.LIFO, seed)
	case NaiveRandom:
		return assign.Naive(assign.Random, seed)
	default:
		return assign.Naive(assign.LabelDescending, seed)
	}
}

// ExecOptions configures a run of an analyzed program.
type ExecOptions struct {
	// Policy selects the assignment discipline; DynamicCompatible by
	// default.
	Policy PolicyKind
	// QueuesPerLink defaults to the analysis' minimum for the chosen
	// policy.
	QueuesPerLink int
	// Capacity is the per-queue capacity (default 1).
	Capacity int
	// ExtCapacity/ExtPenalty enable the §8 queue extension.
	ExtCapacity int
	ExtPenalty  int
	// DirectionalPools gives each link one queue pool per direction
	// instead of the paper's shared, direction-resettable pool.
	DirectionalPools bool
	// Logic supplies word values (nil = synthetic).
	Logic machine.CellLogic
	// Seed feeds randomized policies.
	Seed int64
	// MaxCycles bounds the run (0 = derived default).
	MaxCycles int
	// RecordTimeline captures bind/release events.
	RecordTimeline bool
	// Force skips the Theorem 1 precondition check, allowing
	// deliberately under-provisioned runs (used to demonstrate the
	// failure modes the theorem excludes).
	Force bool
	// Workers is ignored: a run is single-threaded.
	//
	// Deprecated: sharded execution was removed; the field stays only
	// because tools/perf, frozen by the benchmark contract, sets it.
	// Negative is still an OptionError.
	Workers int
	// Context, when non-nil, cancels the run between simulated cycles;
	// Execute then returns the wrapped context error.
	Context context.Context
	// Faults degrades the array for this run: slowed or dead cells,
	// throttled or severed links, each optionally from a given cycle
	// (see internal/fault). nil runs the perfect array. Faults are a
	// run-time condition, not an analysis input — the analysis'
	// Theorem 1 budgets describe the perfect array, and
	// verify.DegradedBudgets reports which of them survive each fault.
	Faults *fault.Plan
	// LinkModel retimes the interconnect for this run: fixed per-link
	// latency/bandwidth or congestion-sensitive backpressure (see
	// internal/linkmodel). nil or a unit plan keeps unit-latency links.
	// Like Faults it is a run-time condition: the analysis' budgets
	// describe the unit-latency array, and verify.LinkBudgets reports
	// how they stretch under the model.
	LinkModel *linkmodel.Plan
}

// MinQueues returns Theorem 1's queues-per-link requirement for a
// policy: the largest competing set for static assignment, the largest
// equal-label group otherwise.
func (a *Analysis) MinQueues(policy PolicyKind) int {
	if policy == StaticAssignment {
		return a.MinQueuesStatic
	}
	return a.MinQueuesDynamic
}

// ResolveQueues resolves a requested queues-per-link budget: 0 means
// the analysis' minimum for the policy, floored at one physical queue.
// Execute and the sweep engine share this so reports always name the
// budget that actually ran.
func (a *Analysis) ResolveQueues(policy PolicyKind, requested int) int {
	if requested != 0 {
		return requested
	}
	if q := a.MinQueues(policy); q > 0 {
		return q
	}
	return 1
}

// Execute runs an analyzed program under the chosen policy. For the
// compatible and static policies it verifies Theorem 1's assumption
// (ii) first (unless Force) so that a refusal is a clear report rather
// than a run-time stall.
func Execute(a *Analysis, opts ExecOptions) (*machine.Result, error) {
	m, mopts, err := lower(a, opts)
	if err != nil {
		return nil, err
	}
	mopts.Policy = opts.Policy.policy(opts.Seed)
	return m.Run(mopts)
}

// lower validates ExecOptions against an analysis and lowers them to
// the machine layer: budget resolution and the Theorem 1 precondition
// check. It checks only what core alone can judge — the options the
// machine never sees (QueuesPerLink's auto value, Workers, the policy
// kind), MaxCycles, deadlock-freedom and Theorem 1; capacities, the
// extension, faults and the link model are validated once, by the
// machine, as a *machine.ConfigError. Execute and Runner.Execute share
// it so the batch path rejects exactly what the pooled path rejects,
// with byte-identical error strings. The returned options carry a nil
// Policy — the caller instantiates it (Execute fresh per call, Runner
// from its retained per-kind instances).
func lower(a *Analysis, opts ExecOptions) (*machine.Machine, machine.ExecOptions, error) {
	var none machine.ExecOptions
	if a == nil || a.Program == nil {
		return nil, none, &OptionError{Op: "Execute", Field: "Analysis", Reason: "nil analysis"}
	}
	if a.Topology == nil {
		return nil, none, &OptionError{Op: "Execute", Field: "Analysis.Topology", Reason: "nil topology"}
	}
	if opts.QueuesPerLink < 0 {
		return nil, none, &OptionError{Op: "Execute", Field: "QueuesPerLink", Reason: fmt.Sprintf("negative queue count %d (0 = analysis minimum)", opts.QueuesPerLink)}
	}
	if opts.MaxCycles < 0 {
		return nil, none, &OptionError{Op: "Execute", Field: "MaxCycles", Reason: fmt.Sprintf("negative cycle bound %d", opts.MaxCycles)}
	}
	if opts.Workers < 0 {
		return nil, none, &OptionError{Op: "Execute", Field: "Workers", Reason: fmt.Sprintf("negative worker count %d", opts.Workers)}
	}
	switch opts.Policy {
	case DynamicCompatible, StaticAssignment, NaiveFCFS, NaiveLIFO, NaiveRandom, NaiveAdversarial:
	default:
		return nil, none, &OptionError{Op: "Execute", Field: "Policy", Reason: fmt.Sprintf("unknown policy kind %d", int(opts.Policy))}
	}
	if !a.DeadlockFree {
		return nil, none, fmt.Errorf("core: program is not deadlock-free: %s",
			crossoff.DescribeBlocked(a.Program, a.Blocked))
	}
	queues := a.ResolveQueues(opts.Policy, opts.QueuesPerLink)
	capacity := opts.Capacity
	if capacity == 0 {
		capacity = 1
	}
	if !opts.Force {
		switch opts.Policy {
		case DynamicCompatible:
			if queues < a.MinQueuesDynamic {
				return nil, none, fmt.Errorf(
					"core: %d queues per link < %d required by the largest equal-label group (Theorem 1 assumption (ii)); pass Force to run anyway",
					queues, a.MinQueuesDynamic)
			}
		case StaticAssignment:
			if queues < a.MinQueuesStatic {
				return nil, none, fmt.Errorf(
					"core: %d queues per link < %d required for static assignment; pass Force to run anyway",
					queues, a.MinQueuesStatic)
			}
		}
	}
	m, err := a.Machine()
	if err != nil {
		return nil, none, err
	}
	return m, machine.ExecOptions{
		QueuesPerLink:    queues,
		Capacity:         capacity,
		ExtCapacity:      opts.ExtCapacity,
		ExtPenalty:       opts.ExtPenalty,
		DirectionalPools: opts.DirectionalPools,
		Logic:            opts.Logic,
		MaxCycles:        opts.MaxCycles,
		RecordTimeline:   opts.RecordTimeline,
		Context:          opts.Context,
		Faults:           opts.Faults,
		LinkModel:        opts.LinkModel,
	}, nil
}

// Runner is a batched execution context over one analysis: it holds a
// machine.Exec and replays configurations against it back-to-back, so a
// column of grid points borrows run scratch from the process-wide pool
// once instead of once per point, and keeps the Result buffers from
// point to point. Release gives the scratch back. Validation,
// budget resolution, and the Theorem 1 precondition check are the
// shared lower step — a Runner rejects exactly the configurations
// Execute rejects, with identical error strings, and a completed run
// produces byte-identical Result content.
//
// The Result lifetime contract is machine.Exec's: the returned Result
// aliases the Runner's retained buffers and is valid only until the
// next Execute or Release call on the same Runner. A Runner is NOT safe for
// concurrent use; concurrent callers use Execute, which is.
type Runner struct {
	a  *Analysis
	ex *machine.Exec
	// policies retains one assign.Policy instance per kind: policies
	// fully reset their per-run state in Setup (see assign.Policy), so
	// reuse is invisible in results while eliding the per-grid-point
	// constructor and grant-scratch allocations. seeds invalidates an
	// instance when the caller's seed changes (only randomized
	// policies read it, but re-creating is cheaper than knowing which).
	policies [NaiveAdversarial + 1]assign.Policy
	seeds    [NaiveAdversarial + 1]int64
}

// NewRunner returns a batched execution context for a. The analysis'
// machine is compiled lazily on the first Execute, exactly as the
// package-level Execute does, so constructing a Runner for an analysis
// that turns out never to run costs nothing.
func NewRunner(a *Analysis) *Runner {
	return &Runner{a: a}
}

// Execute runs one configuration against the Runner's retained
// execution context. See Runner for the Result lifetime contract.
//
//sysvet:hotpath
func (r *Runner) Execute(opts ExecOptions) (*machine.Result, error) {
	m, mopts, err := lower(r.a, opts)
	if err != nil {
		return nil, err
	}
	mopts.Policy = r.policyFor(opts.Policy, opts.Seed)
	if r.ex == nil {
		r.ex = m.NewExec()
	}
	return r.ex.Run(mopts)
}

// Release returns the Runner's run scratch to the process-wide pool
// (machine.Exec.Release). The last Result is invalid from here on; a
// later Execute borrows again.
func (r *Runner) Release() {
	if r.ex != nil {
		r.ex.Release()
	}
}

// policyFor returns the Runner's retained policy instance for a kind,
// creating it on first use and replacing it when the seed changes.
// lower has already validated the kind.
func (r *Runner) policyFor(k PolicyKind, seed int64) assign.Policy {
	i := int(k)
	if r.policies[i] == nil || r.seeds[i] != seed {
		r.policies[i] = k.policy(seed)
		r.seeds[i] = seed
	}
	return r.policies[i]
}
