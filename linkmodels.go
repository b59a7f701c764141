package systolic

import (
	"systolic/internal/linkmodel"
	"systolic/internal/verify"
)

// Link-timing models (see internal/linkmodel): a LinkModelPlan retimes
// the interconnect a run executes on — a uniform or per-link service
// delay, a word credit per service window, or congestion-sensitive
// backpressure — while the analysis stays the unit-latency Theorem 1
// story. Execute applies a plan via ExecOptions.LinkModel; LinkBudgets
// reports the model's worst-case stretch and which messages it
// touches. All shipped models are delay-only, so an analyzer-approved
// configuration still completes under any of them, merely later.
type (
	// LinkModelPlan retimes every link of one run. A nil plan, the
	// unit plan, and a delay-1 fixed plan are byte-identical to
	// unit-latency execution.
	LinkModelPlan = linkmodel.Plan
	// LinkOverride retimes a single link inside a fixed plan.
	LinkOverride = linkmodel.Override
	// LinkImpact reports one link-timing model's effect on Theorem 1's
	// guarantees (see LinkBudgets).
	LinkImpact = verify.LinkImpact
)

// ParseLinkModelSpec parses the comma-separated link-model grammar
// shared by the sysdl -link-model flag and the server wire format:
//
//	unit                                     unit-latency links (the default)
//	fixed[,delay=K][,credit=C]               uniform service delay / word credit
//	     [,link:IDX:delay=K][,link:IDX:credit=C]  per-link overrides
//	congestion[,delay=K][,threshold=T][,max=M][,credit=C]
//	                                         backpressure: +1 delay per T words
//	                                         over the threshold, capped at M
//
// Duplicate parameters and duplicate per-link overrides are parse
// errors. LinkModelPlan.String is the inverse (canonical form).
func ParseLinkModelSpec(spec string) (*LinkModelPlan, error) { return linkmodel.ParseSpec(spec) }

// LinkBudgets evaluates a link-timing plan against an analyzed
// configuration: the worst-case schedule stretch, the messages whose
// routes the model retimes, and Theorem 1's queue budgets (which
// delay-only retiming carries over unchanged). A nil or unit plan
// yields nil.
func LinkBudgets(a *Analysis, plan *LinkModelPlan) *LinkImpact {
	return verify.LinkBudgets(a.Routes, a.Labeling.Dense, plan, len(a.Topology.Links()))
}
