package verify

import (
	"reflect"
	"testing"

	"systolic/internal/linkmodel"
	"systolic/internal/model"
)

func TestLinkBudgetsNoopPlan(t *testing.T) {
	_, routes, dense := degradedFixture(t)
	if got := LinkBudgets(routes, dense, nil, 8); got != nil {
		t.Errorf("nil plan → %+v impact", got)
	}
	if got := LinkBudgets(routes, dense, &linkmodel.Plan{Kind: linkmodel.Unit}, 8); got != nil {
		t.Errorf("unit plan → %+v impact", got)
	}
	// fixed,delay=1 with no credit is unit timing in disguise; IsUnit
	// recognizes it and the analysis stays silent.
	if got := LinkBudgets(routes, dense, linkmodel.FixedPlan(1, 0), 8); got != nil {
		t.Errorf("fixed,delay=1 plan → %+v impact", got)
	}
}

func TestLinkBudgetsUniformFixed(t *testing.T) {
	_, routes, dense := degradedFixture(t)
	imp := LinkBudgets(routes, dense, linkmodel.FixedPlan(3, 0), 8)
	if imp == nil {
		t.Fatal("fixed,delay=3 → nil impact")
	}
	if imp.Model != "fixed,delay=3" {
		t.Errorf("Model = %q", imp.Model)
	}
	if !imp.GuaranteeHolds {
		t.Error("delay-only retiming voided the guarantee")
	}
	if imp.MaxFactor != 3 {
		t.Errorf("MaxFactor = %d, want 3", imp.MaxFactor)
	}
	// A uniform slowdown touches every routed message.
	if want := []model.MessageID{0, 1, 2}; !reflect.DeepEqual(imp.AffectedMessages, want) {
		t.Errorf("AffectedMessages = %v, want %v", imp.AffectedMessages, want)
	}
	// Theorem 1 budgets carry over unchanged from the unit array.
	base := CheckPreconditionsRoutes(routes, dense, 1<<30)
	if imp.MinQueuesDynamic != base.MaxGroup || imp.MinQueuesStatic != base.MaxCompeting {
		t.Errorf("budgets (%d,%d) diverged from unit array (%d,%d)",
			imp.MinQueuesDynamic, imp.MinQueuesStatic, base.MaxGroup, base.MaxCompeting)
	}
}

func TestLinkBudgetsPerLinkOverride(t *testing.T) {
	_, routes, dense := degradedFixture(t)
	// Unit base delay with one slowed link: only the message routed
	// over that link is affected, and the override sets the factor.
	slowed := routes[1][0].Link
	plan := &linkmodel.Plan{
		Kind:      linkmodel.Fixed,
		Delay:     1,
		Overrides: []linkmodel.Override{{Link: slowed, Delay: 4}},
	}
	imp := LinkBudgets(routes, dense, plan, 8)
	if imp == nil {
		t.Fatal("override plan → nil impact")
	}
	if imp.MaxFactor != 4 {
		t.Errorf("MaxFactor = %d, want 4", imp.MaxFactor)
	}
	if want := []model.MessageID{1}; !reflect.DeepEqual(imp.AffectedMessages, want) {
		t.Errorf("AffectedMessages = %v, want %v", imp.AffectedMessages, want)
	}
}

func TestLinkBudgetsCongestion(t *testing.T) {
	_, routes, dense := degradedFixture(t)
	imp := LinkBudgets(routes, dense, linkmodel.CongestionPlan(1, 2, 4), 8)
	if imp == nil {
		t.Fatal("congestion plan → nil impact")
	}
	if !imp.GuaranteeHolds {
		t.Error("congestion retiming voided the guarantee")
	}
	// Worst case: base delay plus the full backpressure window.
	if imp.MaxFactor != 5 {
		t.Errorf("MaxFactor = %d, want 5", imp.MaxFactor)
	}
	// Congestion feedback can slow any link, so every routed message
	// is in scope.
	if want := []model.MessageID{0, 1, 2}; !reflect.DeepEqual(imp.AffectedMessages, want) {
		t.Errorf("AffectedMessages = %v, want %v", imp.AffectedMessages, want)
	}
	// Spec round-trips through the canonical form.
	if _, err := linkmodel.ParseSpec(imp.Model); err != nil {
		t.Errorf("Model %q does not re-parse: %v", imp.Model, err)
	}
}
