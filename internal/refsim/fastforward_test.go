package refsim

import (
	"testing"

	"systolic/internal/model"
	"systolic/internal/topology"
)

// The compiled machine fast-forwards over cycles in which provably
// nothing can happen; the reference engine steps through every one of
// them. These tests pin the places where the jump target is not a
// candidate's own wake-up — the stall search for the cycle on which a
// deadlock becomes provable, and a cycle bound that lands inside a
// window — against the stepping oracle.

// hostPipeline is examples/dsl/pipeline.sys: a host streams three
// words through C1 and C2 and reads the results back over two hops.
func hostPipeline(t testing.TB) *model.Program {
	t.Helper()
	b := model.NewBuilder()
	host, c1, c2 := b.AddCell("Host"), b.AddCell("C1"), b.AddCell("C2")
	in := b.DeclareMessage("IN", host, c1, 3)
	mid := b.DeclareMessage("MID", c1, c2, 3)
	out := b.DeclareMessage("OUT", c2, host, 3)
	b.Write(host, in)
	b.Write(host, in)
	b.Read(host, out)
	b.Write(host, in)
	b.Read(host, out)
	b.Read(host, out)
	for i := 0; i < 3; i++ {
		b.Read(c1, in)
		b.Write(c1, mid)
		b.Read(c2, mid)
		b.Write(c2, out)
	}
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestStallSearchMatchesReference: work parks behind a dead cell (or a
// severed link) while nothing time-dependent holds any candidate, so
// the deadlock is only waiting to become provable — for every periodic
// gate to be open at once, for the last busy window to close. The
// machine jumps to that cycle; deadlock cycle, gated ops and blocked
// set must be the ones the reference engine steps its way to.
func TestStallSearchMatchesReference(t *testing.T) {
	p := hostPipeline(t)
	cases := []struct {
		name      string
		faults    string
		linkModel string
		ext       bool
		stall     int // expected deadlock cycle; 0 = whatever the reference says
	}{
		{name: "one slow gate", faults: "cell:2:dead,link:0:slow=4096", stall: 8192},
		{name: "two coprime gates, one delayed", faults: "cell:2:dead,link:0:slow=1000,cell:1:slow=13@40", stall: 13000},
		{name: "gate starting after the stall", faults: "cell:2:dead,cell:0:slow=512@700"},
		{name: "busy window only", faults: "cell:2:dead", linkModel: "fixed,delay=300"},
		{name: "busy window and gate", faults: "cell:2:dead,link:0:slow=77", linkModel: "congestion,delay=9,threshold=2,max=5"},
		{name: "severed link with extension penalty", faults: "link:1:sever@9,link:0:slow=512", ext: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := fcfs(2, 1)
			c.Faults = mustFaultPlan(tc.faults)
			if tc.linkModel != "" {
				c.LinkModel = mustLinkModel(tc.linkModel)
			}
			if tc.ext {
				c.ExtCapacity, c.ExtPenalty = 2, 9
			}
			res := bothEngines(t, p, topology.Linear(3), c)
			if !res.Deadlocked {
				t.Fatalf("outcome %s at cycle %d, want a deadlock", res.Outcome(), res.Cycles)
			}
			if tc.stall != 0 && res.Cycles != tc.stall {
				t.Fatalf("stall cycle = %d, want %d", res.Cycles, tc.stall)
			}
			if res.Stats.GatedOps == 0 {
				t.Fatal("no gated ops: the stall never met a fault gate")
			}
		})
	}
}

// TestCutOffInsideWindow: a cycle bound that lands inside a
// fast-forward window reports TimedOut with Cycles == MaxCycles and the
// gated-op count of every skipped cycle, exactly as stepping does.
func TestCutOffInsideWindow(t *testing.T) {
	p := pipeline(t, 6)
	for _, tc := range []struct {
		name      string
		maxCycles int
		gated     int
	}{
		// Link 0 serves a word on cycle 0 and is busy until 37; its
		// gate (open on multiples of 16) then holds the next word back
		// on cycles 37..47, and the word crossing on 48 opens the next
		// busy window.
		{"inside a gated stretch", 45, 8},
		{"inside a busy window", 50, 11},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := fcfs(1, 1)
			c.LinkModel = mustLinkModel("fixed,delay=37")
			c.Faults = mustFaultPlan("link:0:slow=16")
			c.MaxCycles = tc.maxCycles
			res := bothEngines(t, p, topology.Linear(2), c)
			if !res.TimedOut || res.Cycles != tc.maxCycles {
				t.Fatalf("outcome %s at cycle %d, want timed-out at %d", res.Outcome(), res.Cycles, tc.maxCycles)
			}
			if res.Stats.GatedOps != tc.gated {
				t.Fatalf("gated ops = %d, want %d", res.Stats.GatedOps, tc.gated)
			}
		})
	}
}
