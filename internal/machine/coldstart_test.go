package machine

import (
	"testing"

	"systolic/internal/topology"
)

// TestAllocGateColdRun: what a first Run on a compiled machine
// allocates — the exec's tables, with every pool's pending list and every
// bindable queue's ring carved from one array each — is a fixed number
// of arrays, so a wide-linear array twice as long must not cost more of
// them. A ring per queue, or a pending list per pool, costs thousands.
func TestAllocGateColdRun(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	cold := func(cells int) float64 {
		m := mustCompile(t, pipeline(t, cells, 4), topology.Linear(cells))
		return testing.AllocsPerRun(3, func() {
			m.reset() // drop the pooled exec: every run is a first run
			res, err := m.Run(fcfs(2, 2))
			if err != nil || !res.Completed {
				t.Fatalf("%d cells: completed=%v, err=%v", cells, res != nil && res.Completed, err)
			}
		})
	}
	short, long := cold(1024), cold(2048)
	t.Logf("first Run: %v allocations at 1024 cells, %v at 2048", short, long)
	if long >= 1.1*short {
		t.Errorf("first Run allocates %v times at 2048 cells against %v at 1024: the cold start follows the array", long, short)
	}
}
