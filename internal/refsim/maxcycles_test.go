package refsim

import (
	"testing"

	"systolic/internal/linkmodel"
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
