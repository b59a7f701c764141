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

// TestAllocGateCompile: Compile lowers only the shared pool regime, as
// a fixed number of arrays — the per-cell and per-message tables and
// one count-then-fill array per pool table — so a pipeline twice as
// long costs the same allocations. The directional table is built by
// the first run that selects DirectionalPools and by nothing before it:
// not by Compile, and not by a shared-pool run.
func TestAllocGateCompile(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	compile := func(cells int) (*Machine, float64) {
		p, topo := pipeline(t, cells, 4), topology.Linear(cells)
		routes, err := topology.Routes(p, topo)
		if err != nil {
			t.Fatal(err)
		}
		labels := make([]int, p.NumMessages())
		for i := range labels {
			labels[i] = i%3 + 1
		}
		var m *Machine
		allocs := testing.AllocsPerRun(3, func() {
			if m, err = Compile(p, topo, routes, labels); err != nil {
				t.Fatal(err)
			}
		})
		return m, allocs
	}
	_, short := compile(1024)
	m, long := compile(2048)
	t.Logf("Compile: %v allocations at 1024 cells, %v at 2048", short, long)
	if long != short {
		t.Errorf("Compile allocates %v times at 2048 cells against %v at 1024: a table is built per pool, message or cell", long, short)
	}
	// The Machine, its nine per-cell, per-message and per-hop tables,
	// the shared table's five arrays and the exec pool.
	if short > 15 {
		t.Errorf("Compile allocates %v times, budget 15", short)
	}
	if res, err := m.Run(fcfs(2, 2)); err != nil || !res.Completed {
		t.Fatalf("shared-pool run: %v", err)
	}
	if m.directional.competingByPool != nil {
		t.Fatal("the directional pool table exists before any directional run")
	}
	opts := fcfs(2, 2)
	opts.DirectionalPools = true
	if res, err := m.Run(opts); err != nil || !res.Completed {
		t.Fatalf("directional run: %v", err)
	}
	if got, want := len(m.directional.competingByPool), 2*len(m.links); got != want {
		t.Errorf("after a directional run the directional table has %d pools, want %d", got, want)
	}
}
