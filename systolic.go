// Package systolic reproduces H. T. Kung's "Deadlock Avoidance for
// Systolic Communication" (Journal of Complexity 4, 1988) as a working
// library: the abstract program/queue model, the crossing-off
// deadlock-freedom test (with §8 lookahead), the §6 consistent message
// labeling scheme, the §7 static and dynamic compatible queue
// assignment policies, and a deterministic cycle-level simulator that
// demonstrates both the queue-induced deadlocks of §4 and their
// avoidance (Theorem 1).
//
// The typical pipeline:
//
//	p := systolic.NewProgram()               // build or systolic.ParseDSL(...)
//	a, err := systolic.Analyze(p.MustBuild(), systolic.LinearArray(4), systolic.AnalyzeOptions{})
//	res, err := systolic.Execute(a, systolic.ExecOptions{})
//
// Analyze classifies the program (deadlock-free or not), runs the
// labeling scheme, and computes how many queues per link Theorem 1
// requires; Execute simulates it under a queue-assignment policy.
package systolic

import (
	"systolic/internal/core"
	"systolic/internal/crossoff"
	"systolic/internal/dsl"
	"systolic/internal/label"
	"systolic/internal/machine"
	"systolic/internal/model"
	"systolic/internal/rational"
	"systolic/internal/topology"
	"systolic/internal/verify"
)

// Core model types (see internal/model).
type (
	// Program is a validated systolic program: message declarations
	// plus one R/W op sequence per cell.
	Program = model.Program
	// ProgramBuilder assembles a Program incrementally.
	ProgramBuilder = model.Builder
	// CellID identifies a cell; MessageID a declared message.
	CellID = model.CellID
	// MessageID identifies a declared message.
	MessageID = model.MessageID
	// Op is a single R(X) or W(X) statement.
	Op = model.Op
	// Message is a declared message (sender, receiver, word count).
	Message = model.Message
	// OpKind distinguishes reads from writes.
	OpKind = model.OpKind
)

// Read and Write are the two operation kinds of the model.
const (
	Read  = model.Read
	Write = model.Write
)

// NewProgram returns an empty program builder.
func NewProgram() *ProgramBuilder { return model.NewBuilder() }

// Topology types and constructors (see internal/topology).
type (
	// Topology connects cells with links and routes messages.
	Topology = topology.Topology
	// LinkID identifies an undirected link ("interval") between
	// adjacent cells.
	LinkID = topology.LinkID
	// Hop is one directed step of a message route.
	Hop = topology.Hop
)

// LinearArray returns a 1-D array of n cells, the paper's default
// setting.
func LinearArray(n int) Topology { return topology.Linear(n) }

// RingArray returns a ring of n cells with shorter-arc routing.
func RingArray(n int) Topology { return topology.Ring(n) }

// Mesh returns a rows×cols 2-D mesh with XY routing.
func Mesh(rows, cols int) Topology { return topology.Mesh2D(rows, cols) }

// Torus returns a rows×cols 2-D torus (mesh plus wraparound) with
// shorter-way dimension-ordered routing.
func Torus(rows, cols int) Topology { return topology.Torus2D(rows, cols) }

// HypercubeTopology returns a 2^dim-cell hypercube with e-cube
// routing — the Cosmic Cube topology the paper's introduction
// contrasts with.
func HypercubeTopology(dim int) Topology { return topology.Hypercube(dim) }

// StarTopology returns a hub-and-spoke topology with cell 0 as hub.
func StarTopology(n int) Topology { return topology.Star(n) }

// GraphTopology returns an arbitrary adjacency with BFS routing.
func GraphTopology(n int, edges [][2]CellID) Topology { return topology.Graph(n, edges) }

// Routes computes every message's route. Competing groups messages by
// shared link.
func Routes(p *Program, t Topology) ([][]Hop, error) { return topology.Routes(p, t) }

// Competing maps each link to the messages crossing it.
func Competing(routes [][]Hop) map[LinkID][]MessageID { return topology.Competing(routes) }

// Crossing-off (deadlock-freedom analysis, §3 and §8.1).
type (
	// CrossoffOptions configures the classifier (lookahead, budgets,
	// pair choice, observer).
	CrossoffOptions = crossoff.Options
	// CrossoffResult reports classification and the crossed order.
	CrossoffResult = crossoff.Result
	// CrossoffPair is one crossed executable pair.
	CrossoffPair = crossoff.Pair
	// CrossoffRound is one simultaneous step of the Fig 4 schedule.
	CrossoffRound = crossoff.Round
)

// IsDeadlockFree runs the strict crossing-off procedure (§3.2).
func IsDeadlockFree(p *Program) bool { return crossoff.Classify(p, crossoff.Options{}) }

// IsDeadlockFreeWithLookahead runs the §8.1 variant: only writes may
// be skipped (rule R1), at most budget skipped writes per message per
// located pair (rule R2).
func IsDeadlockFreeWithLookahead(p *Program, budget int) bool {
	return crossoff.Classify(p, crossoff.Options{Lookahead: true, Budget: crossoff.UniformBudget(budget)})
}

// CrossOff runs the procedure with full options and trace.
func CrossOff(p *Program, opts CrossoffOptions) CrossoffResult { return crossoff.Run(p, opts) }

// CrossOffSchedule returns the maximal simultaneous rounds (Fig 4).
func CrossOffSchedule(p *Program) ([]CrossoffRound, bool) { return crossoff.Schedule(p) }

// Labeling (§6).
type (
	// Labeling assigns every message an exact rational label plus a
	// dense integer rank.
	Labeling = label.Labeling
	// LabelOptions configures the §6 scheme.
	LabelOptions = label.Options
	// Rational is the exact label arithmetic type.
	Rational = rational.R
)

// AssignLabels runs the §6 consistent labeling scheme: one crossing-off
// pass with the labeler as its observer — the same pass, and the same
// code, Analyze takes its verdict and its labeling from. It fails only
// for a program that is not deadlock-free under the selected variant.
func AssignLabels(p *Program, opts LabelOptions) (Labeling, error) { return label.Assign(p, opts) }

// TrivialLabels labels every message 1 — always consistent, maximally
// stringent for assignment (§5).
func TrivialLabels(p *Program) Labeling { return label.Trivial(p) }

// CheckLabels verifies consistency: each cell touches messages in
// nondecreasing label order.
func CheckLabels(p *Program, l Labeling) error { return label.Check(p, l.ByMessage) }

// RelatedMessages computes the §6 related-message classes
// (interleaved reads or writes at a cell, closed transitively), each
// keyed by a representative member and sorted ascending. Rule 1c of the
// labeling scheme hands every class one label.
func RelatedMessages(p *Program) map[int][]int { return label.Related(p).Classes() }

// Engine pipeline (Analyze / Execute) and run-time types.
type (
	// Analysis is the compile-time artifact: classification, labels,
	// and queue requirements.
	Analysis = core.Analysis
	// AnalyzeOptions configures Analyze.
	AnalyzeOptions = core.AnalyzeOptions
	// ExecOptions configures Execute.
	ExecOptions = core.ExecOptions
	// PolicyKind selects a queue-assignment discipline.
	PolicyKind = core.PolicyKind
	// RunResult is a simulation outcome.
	RunResult = machine.Result
	// CellLogic supplies word values for semantic workloads.
	CellLogic = machine.CellLogic
	// Word is the transfer unit.
	Word = machine.Word
)

// Queue-assignment policy kinds.
const (
	// DynamicCompatible is the §7.2 ordered + simultaneous policy.
	DynamicCompatible = core.DynamicCompatible
	// StaticAssignment is the §7.1 policy.
	StaticAssignment = core.StaticAssignment
	// NaiveFCFS grants queues in request order, ignoring labels.
	NaiveFCFS = core.NaiveFCFS
	// NaiveLIFO grants the most recent requester first.
	NaiveLIFO = core.NaiveLIFO
	// NaiveRandom grants in seeded-random order.
	NaiveRandom = core.NaiveRandom
	// NaiveAdversarial grants the largest label first.
	NaiveAdversarial = core.NaiveAdversarial
)

// ParsePolicyName maps a policy name ("compatible", "static", "fcfs",
// "lifo", "random", "adversarial", or a PolicyKind.String() form) to
// its PolicyKind — the spelling shared by the sysdl flags and the
// /v1/* wire format.
func ParsePolicyName(name string) (PolicyKind, error) { return core.ParsePolicy(name) }

// Analyze classifies and labels a program over a topology and computes
// Theorem 1's queue requirements.
func Analyze(p *Program, t Topology, opts AnalyzeOptions) (*Analysis, error) {
	return core.Analyze(p, t, opts)
}

// Execute simulates an analyzed program under a policy; with the
// default DynamicCompatible policy and Analyze-approved queue counts,
// Theorem 1 guarantees completion.
//
// Execution runs on a compiled machine (internal/machine) that is
// built once per Analysis and cached on it: the first Execute pays
// the compile, every later Execute on the same Analysis — any policy,
// queue budget, capacity, or logic — is pure simulation. That is what
// makes grid runs (Sweep, the differential oracle) cheap.
func Execute(a *Analysis, opts ExecOptions) (*RunResult, error) { return core.Execute(a, opts) }

// Precompile forces the analysis' execution machine to compile now
// instead of lazily on the first Execute — useful to front-load the
// cost before a latency-sensitive run loop, or to surface a
// compilation error early. Execute calls it implicitly.
func Precompile(a *Analysis) error {
	_, err := a.Machine()
	return err
}

// PreconditionReport and CheckPreconditions expose Theorem 1's
// assumption (ii) directly.
type PreconditionReport = verify.PreconditionReport

// CheckPreconditions reports per-link queue requirements under a dense
// labeling.
func CheckPreconditions(p *Program, t Topology, dense []int, queuesPerLink int) (PreconditionReport, error) {
	return verify.CheckPreconditions(p, t, dense, queuesPerLink)
}

// Fix is a single-swap repair suggestion for a deadlocked program.
type Fix = verify.Fix

// SuggestFixes searches for adjacent-op swaps that make a deadlocked
// program deadlock-free (§9: deadlock-freedom is the programmer's or
// compiler's responsibility — this is the assistant half). DescribeFix
// renders one suggestion.
func SuggestFixes(p *Program, limit int) []Fix { return verify.SuggestFixes(p, limit) }

// DescribeFix renders a repair suggestion using program names.
func DescribeFix(p *Program, f Fix) string { return verify.DescribeFix(p, f) }

// ParseDSL parses the text notation (see internal/dsl for the
// grammar); FormatDSL is its inverse.
func ParseDSL(src string) (*Program, Topology, error) {
	f, err := dsl.Parse(src)
	if err != nil {
		return nil, nil, err
	}
	return f.Program, f.Topology, nil
}

// FormatDSL renders a program (and optional topology) as DSL text.
func FormatDSL(p *Program, t Topology) string { return dsl.Format(p, t) }
