package refsim

import (
	"errors"
	"math"
	"testing"

	"systolic/internal/fault"
	"systolic/internal/linkmodel"
	"systolic/internal/machine"
	"systolic/internal/topology"
)

// TestLinkLatencyDerivedBound mirrors the machine package's
// maxCyclesFor regression for the reference engine: defaultMaxCycles
// must scale by the link factor, or a slow-link run that needs more
// cycles than the old unit-latency bound (the 2^14 floor for this
// workload) is misreported as stuck. The old derivation is simulated
// by pinning MaxCycles to its value.
func TestLinkLatencyDerivedBound(t *testing.T) {
	p := pipeline(t, 64)
	c := fcfs(1, 1)
	c.LinkModel = linkmodel.FixedPlan(264, 1)
	res := bothEngines(t, p, topology.Linear(2), c)
	if !res.Completed {
		t.Fatalf("slow-link run under the scaled derived bound: %s at cycle %d", res.Outcome(), res.Cycles)
	}
	const oldBound = 1 << 14
	if res.Cycles <= oldBound {
		t.Fatalf("run finished at cycle %d, inside the old bound %d — fixture no longer exercises the regression", res.Cycles, oldBound)
	}

	c.MaxCycles = oldBound
	if cut := bothEngines(t, p, topology.Linear(2), c); cut.Completed {
		t.Fatalf("run pinned to the old bound completed in %d cycles", cut.Cycles)
	}
}

// TestDerivedBoundOverflow: a fault slowdown whose derived bound does
// not fit in int is the same MaxCycles ConfigError, text and all, from
// both engines — never a wrapped bound in one of them. The largest
// slowdown a plan may carry (2³¹−1) overflows the bound of a 256-word
// run over the slowest link model.
func TestDerivedBoundOverflow(t *testing.T) {
	p := pipeline(t, 256)
	c := fcfs(1, 1)
	c.Faults = &fault.Plan{Cells: []fault.CellFault{{Cell: 0, Factor: math.MaxInt32}}}
	c.LinkModel = linkmodel.FixedPlan(1<<20, 1)
	_, refErr := Run(p, topology.Linear(2), nil, nil, freshPolicy(c))
	_, gotErr := machineRun(p, topology.Linear(2), nil, nil, freshPolicy(c))
	var ce *machine.ConfigError
	if !errors.As(refErr, &ce) || ce.Field != "MaxCycles" {
		t.Fatalf("reference err = %v, want a MaxCycles ConfigError", refErr)
	}
	if gotErr == nil || gotErr.Error() != refErr.Error() {
		t.Fatalf("machine err = %v, want %v", gotErr, refErr)
	}
}
