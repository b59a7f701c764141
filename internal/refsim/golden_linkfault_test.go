package refsim

import (
	"reflect"
	"testing"

	"systolic/internal/fault"
	"systolic/internal/linkmodel"
	"systolic/internal/topology"
)

// TestGoldenLinkFaultTrace pins the exact composed behaviour of a
// throttled link under a latency model — the LinkModel × fault golden
// trace: both engines must gate and delay at identical cycles, and
// the numbers themselves are frozen so any re-ordering of the gate
// sites (link busy test before fault gate, tally after the move)
// shows up as a diff here, not just as cross-engine divergence.
func TestGoldenLinkFaultTrace(t *testing.T) {
	// A 4-word single-hop pipeline; link 0 throttled to every 3rd
	// cycle, and serving each word costs 2 cycles (credit 1).
	c := fcfs(1, 1)
	c.Faults = &fault.Plan{Links: []fault.LinkFault{{Link: 0, Factor: 3}}}
	c.LinkModel = linkmodel.FixedPlan(2, 1)
	res := bothEngines(t, pipeline(t, 4), topology.Linear(2), c)
	if !res.Completed {
		t.Fatalf("throttled+delayed pipeline: %s at cycle %d", res.Outcome(), res.Cycles)
	}
	// Unit-latency fault-free this run takes 9 cycles; the composed
	// throttle (open on cycles 3,6,9,… only) and 2-cycle service with
	// credit 1 land it at exactly 11, with 3 operations held back by
	// the fault gate and the receiver stalled on cycles 6 and 7.
	if res.Cycles != 11 {
		t.Errorf("cycles = %d, want 11", res.Cycles)
	}
	if res.Stats.GatedOps != 3 {
		t.Errorf("gated ops = %d, want 3", res.Stats.GatedOps)
	}
	if want := []int{6, 7}; !reflect.DeepEqual(res.Stats.BlockedCycles, want) {
		t.Errorf("blocked cycles = %v, want %v", res.Stats.BlockedCycles, want)
	}
	if res.Stats.WordsMoved != 4 {
		t.Errorf("words moved = %d, want 4", res.Stats.WordsMoved)
	}

	// A severed link under the same latency model: words that crossed
	// before the cut arrive, then the system freezes and the deadlock
	// detector reports the exact stall cycle and blocked set.
	c2 := fcfs(1, 1)
	c2.Faults = &fault.Plan{Links: []fault.LinkFault{{Link: 0, Severed: true, From: 6}}}
	c2.LinkModel = linkmodel.FixedPlan(2, 1)
	p2 := pipeline(t, 6)
	res2 := bothEngines(t, p2, topology.Linear(2), c2)
	if !res2.Deadlocked {
		t.Fatalf("severed pipeline: %s at cycle %d", res2.Outcome(), res2.Cycles)
	}
	// At 2 cycles per word, exactly 3 of the 6 words cross before the
	// cycle-6 cut; the detector then freezes the run at cycle 6 with
	// the sender wedged on a full queue and the receiver starved.
	if res2.Cycles != 6 {
		t.Errorf("stall cycle = %d, want 6", res2.Cycles)
	}
	if got := len(res2.Received[0]); got != 3 {
		t.Errorf("received %d words before the cut, want 3", got)
	}
	if res2.Stats.GatedOps != 1 {
		t.Errorf("gated ops = %d, want 1", res2.Stats.GatedOps)
	}
	if len(res2.Blocked) != 2 {
		t.Fatalf("blocked set %+v, want sender and receiver", res2.Blocked)
	}
	sender, receiver := res2.Blocked[0], res2.Blocked[1]
	if sender.Cell != 0 || sender.Reason(p2) != "queue for A is full (capacity 1) and the downstream never drains" {
		t.Errorf("sender block = %+v", sender)
	}
	if receiver.Cell != 1 || receiver.Reason(p2) != "no word of A has arrived" {
		t.Errorf("receiver block = %+v", receiver)
	}
}
