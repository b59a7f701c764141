package machine

import (
	"testing"

	"systolic/internal/assign"
	"systolic/internal/model"
	"systolic/internal/topology"
)

// loneMessage is one 1-word message from the first to the last cell of
// a linear array: a route of cells-1 hops with nothing else alive.
func loneMessage(t testing.TB, cells int) *model.Program {
	t.Helper()
	b := model.NewBuilder()
	ids := b.AddCells("C", cells)
	m := b.DeclareMessage("M", ids[0], ids[cells-1], 1)
	b.Write(ids[0], m)
	b.Read(ids[cells-1], m)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestHopVisitsLinearInRoute is the clock-free gate on the occupied-hop
// window: carrying one word over a route must cost hop visits in
// proportion to the route, not to its square. A scheduler that walks
// the whole route of a live message every cycle visits 16× the hops on
// a 4× longer route; the window keeps it at 4×. Static binds the whole
// route before the word moves, so the window also runs against bound
// queues ahead of the header.
func TestHopVisitsLinearInRoute(t *testing.T) {
	for _, pol := range []func() assign.Policy{
		func() assign.Policy { return assign.Naive(assign.FCFS, 0) },
		assign.Static,
	} {
		visits := func(cells int) int {
			ex := mustCompile(t, loneMessage(t, cells), topology.Linear(cells)).NewExec()
			res, err := ex.Run(ExecOptions{Policy: pol(), QueuesPerLink: 1, Capacity: 1})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Completed || res.Stats.Releases != cells-1 {
				t.Fatalf("%d cells: completed=%v with %d releases, want %d", cells, res.Completed, res.Stats.Releases, cells-1)
			}
			return ex.e.visits.hops
		}
		short, long := visits(33), visits(129)
		t.Logf("%s: %d hop visits over 32 hops, %d over 128", pol().Name(), short, long)
		if long > 5*short {
			t.Errorf("%s: %d hop visits over 128 hops against %d over 32: more than 5×, the phases are walking whole routes",
				pol().Name(), long, short)
		}
	}
}

// TestBusySetsExact holds two ready sets to their exact trigger on a
// program where every cell issues every cycle. A message enters the
// moved set only when its last word leaves a hop, so every release
// visit frees a queue; a cell enters the dirty set only when it reaches
// the first W of a message, so after cycle 0's scan of every cell the
// first-hop collect looks at one cell per message — not at one per op
// issued.
func TestBusySetsExact(t *testing.T) {
	const cells, words = 64, 32
	ex := mustCompile(t, pipeline(t, cells, words), topology.Linear(cells)).NewExec()
	res, err := ex.Run(fcfs(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("completed=%v deadlocked=%v timedOut=%v", res.Completed, res.Deadlocked, res.TimedOut)
	}
	v := ex.e.visits
	msgs := cells - 1
	ops := 2 * msgs * words
	t.Logf("%d ops issued: %d release visits for %d releases, %d first-hop visits for %d cells + %d messages",
		ops, v.releases, res.Stats.Releases, v.firstHop, cells, msgs)
	if v.releases > res.Stats.Releases {
		t.Errorf("%d release visits for %d releases: some visit freed nothing", v.releases, res.Stats.Releases)
	}
	if v.firstHop > cells+msgs {
		t.Errorf("%d first-hop visits, want ≤ %d cells + %d messages", v.firstHop, cells, msgs)
	}
}

// TestSetScanFollowsMembers is the clock-free gate on the ready sets'
// summary level: a daisy chain keeps about two messages live whatever
// its length, so walking its ready sets must cost the same number of
// set words per executed cycle on a 4096-cell chain as on a 1024-cell
// one. A scan that steps over every word of a set reads 4× the words
// on the longer chain; through the summary it reads one summary word
// and the non-empty member words.
func TestSetScanFollowsMembers(t *testing.T) {
	perCycle := func(cells int) float64 {
		ex := mustCompile(t, sparseChain(t, cells, 4), topology.Linear(cells)).NewExec()
		res, err := ex.Run(fcfs(2, 2))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatalf("%d cells: completed=%v deadlocked=%v timedOut=%v", cells, res.Completed, res.Deadlocked, res.TimedOut)
		}
		return float64(ex.e.visits.setWords) / float64(ex.e.executed)
	}
	short, long := perCycle(1024), perCycle(4096)
	t.Logf("set words read per executed cycle: %.2f at 1024 cells, %.2f at 4096", short, long)
	if long > 1.25*short {
		t.Errorf("%.2f set words per cycle at 4096 cells against %.2f at 1024: more than 1.25×, the scans are walking empty words", long, short)
	}
}
