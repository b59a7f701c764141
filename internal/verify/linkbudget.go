package verify

// Link-timing analysis: what happens to Theorem 1's guarantees when
// the interconnect is retimed by a linkmodel.Plan. Every model the
// package ships is delay-only — a busy link always frees again within
// a finite window (at most the tallied words × the model's max
// factor) — so the situation mirrors a periodic fault, not a terminal
// one: any schedule that completes on the unit-latency array completes
// on the retimed one, merely stretched, and Theorem 1's queue budgets
// carry over unchanged. What the analysis quantifies is the stretch
// (the model's worst-case latency factor, which also scales the
// engines' derived cycle bounds) and which messages the model touches
// at all.

import (
	"systolic/internal/linkmodel"
	"systolic/internal/model"
	"systolic/internal/topology"
)

// LinkImpact reports one link-timing model's effect on Theorem 1's
// guarantees, in the same shape FaultImpact reports a fault's.
type LinkImpact struct {
	// Model is the model in canonical spec form (linkmodel.ParseSpec
	// round-trips it).
	Model string
	// GuaranteeHolds reports whether Theorem 1's completion guarantee
	// survives. Always true: all shipped models are delay-only, so an
	// analyzer-approved configuration still completes (the fuzz
	// link-model invariant exercises exactly this claim).
	GuaranteeHolds bool
	// MaxFactor is the worst-case schedule stretch: the largest
	// per-link latency factor, plus the congestion model's maximum
	// backpressure. 1 means the model is timing-neutral.
	MaxFactor int
	// AffectedMessages lists, ascending, the messages whose route
	// crosses a link the model retimes (non-unit delay, limited
	// credit, or any congestion feedback).
	AffectedMessages []model.MessageID
	// MinQueuesDynamic and MinQueuesStatic are the Theorem 1 budgets,
	// unchanged from the unit-latency array: delay-only retiming never
	// grows a competing set.
	MinQueuesDynamic int
	MinQueuesStatic  int
}

// LinkBudgets evaluates a link-timing plan against a labeled, routed
// program. A nil or unit plan yields nil: there is nothing to report.
func LinkBudgets(routes [][]topology.Hop, dense []int, plan *linkmodel.Plan, numLinks int) *LinkImpact {
	if plan.IsUnit() {
		return nil
	}
	var affected []model.MessageID
	for id := range routes {
		for _, h := range routes[id] {
			if linkRetimed(plan, h.Link) {
				affected = append(affected, model.MessageID(id))
				break
			}
		}
	}
	rep := CheckPreconditionsRoutes(routes, dense, 1<<30)
	return &LinkImpact{
		Model:            plan.String(),
		GuaranteeHolds:   true,
		MaxFactor:        plan.MaxFactor(numLinks),
		AffectedMessages: affected,
		MinQueuesDynamic: rep.MaxGroup,
		MinQueuesStatic:  rep.MaxCompeting,
	}
}

// linkRetimed reports whether the plan gives link lk non-unit timing:
// a service delay above 1, a finite word credit (bandwidth limit), or
// — for the congestion model — any feedback at all.
func linkRetimed(p *linkmodel.Plan, lk topology.LinkID) bool {
	switch p.Kind {
	case linkmodel.Congestion:
		return p.Delay > 1 || p.Credit > 0 || p.MaxExtra > 0
	case linkmodel.Fixed:
		delay, credit := p.Delay, p.Credit
		for _, o := range p.Overrides {
			if o.Link == lk {
				if o.Delay > 0 {
					delay = o.Delay
				}
				if o.Credit > 0 {
					credit = o.Credit
				}
			}
		}
		return delay > 1 || credit > 0
	}
	return false
}
