package systolic

import (
	"systolic/internal/fault"
	"systolic/internal/verify"
)

// Fault injection (see internal/fault): a FaultPlan degrades the
// array a run executes on — slowed or dead cells, throttled or
// severed links, each optionally taking effect from a given cycle —
// while the analysis stays the perfect-array Theorem 1 story.
// Execute applies a plan via ExecOptions.Faults; DegradedBudgets
// reports which queue guarantees survive each fault.
type (
	// FaultPlan is a set of faults applied to one run. The zero plan,
	// a nil plan, and an all-factor-1 plan are byte-identical to
	// running fault-free.
	FaultPlan = fault.Plan
	// CellFault degrades one cell (periodic slowdown or death).
	CellFault = fault.CellFault
	// LinkFault degrades one link (periodic throttle or severance).
	LinkFault = fault.LinkFault
	// FaultImpact reports one fault's effect on Theorem 1's
	// guarantees (see DegradedBudgets).
	FaultImpact = verify.FaultImpact
)

// Fault class names reported in FaultImpact.Class.
const (
	FaultClassSlowCell    = verify.ClassSlowCell
	FaultClassDeadCell    = verify.ClassDeadCell
	FaultClassSlowLink    = verify.ClassSlowLink
	FaultClassSeveredLink = verify.ClassSeveredLink
)

// ParseFaultSpec parses the comma-separated fault grammar shared by
// the sysdl -fault flag and the server wire format:
//
//	cell:IDX:slow=K[@FROM]   periodic cell slowdown, factor K
//	cell:IDX:dead[@FROM]     dead cell
//	link:IDX:slow=K[@FROM]   periodic link throttle, factor K
//	link:IDX:sever[@FROM]    severed link
//
// An empty spec returns a nil plan. FaultPlan.String is the inverse.
func ParseFaultSpec(spec string) (*FaultPlan, error) { return fault.ParseSpec(spec) }

// DegradedBudgets evaluates each fault of plan against an analyzed
// configuration: periodic faults only delay (the Theorem 1 guarantee
// and budgets survive unchanged), terminal faults remove progress
// (the affected-message closure is reported and the budgets are
// recomputed over the surviving traffic). The analysis must be
// deadlock-free; a nil or no-op plan yields no impacts.
func DegradedBudgets(a *Analysis, plan *FaultPlan) []FaultImpact {
	return verify.DegradedBudgets(a.Program, a.Routes, a.Labeling.Dense, plan)
}
