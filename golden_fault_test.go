// Golden-trace regression tests for fault-induced deadlocks: a dead
// cell and a severed link each stall a relay that is deadlock-free by
// Theorem 1 on the perfect array. As with the Fig 8/9 goldens, the
// pins are exact — the deadlock cycle, the blocked-cell set (cell,
// op, op index, reason), the words delivered before the stall, and
// the gated-operation count — so any change to fault gating in either
// engine must be looked at, not waved through.
package systolic_test

import (
	"testing"

	"systolic"
)

// faultRelayDSL is a three-cell relay, deadlock-free on the perfect
// array at 1 queue/link.
const faultRelayDSL = `topology linear 3
cell C1
cell C2
cell C3
message A C1 C2 2
message B C2 C3 2
code C1: W(A) W(A)
code C2: R(A) W(B) R(A) W(B)
code C3: R(B) R(B)
`

func assertFaultDeadlockTrace(t *testing.T, spec string, wantCycle, wantGated int,
	wantBlocked []goldenBlock, wantReceived map[string][]systolic.Word) {
	t.Helper()
	p, topo, err := systolic.ParseDSL(faultRelayDSL)
	if err != nil {
		t.Fatal(err)
	}
	a, err := systolic.Analyze(p, topo, systolic.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := systolic.ParseFaultSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := systolic.Execute(a, systolic.ExecOptions{
		Faults: plan, QueuesPerLink: 1, Capacity: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deadlocked {
		t.Fatalf("outcome = %s, want deadlocked", res.Outcome())
	}
	if res.Cycles != wantCycle {
		t.Errorf("deadlock cycle = %d, want %d", res.Cycles, wantCycle)
	}
	if res.Stats.GatedOps != wantGated {
		t.Errorf("gated ops = %d, want %d", res.Stats.GatedOps, wantGated)
	}
	if len(res.Faults) != 1 || res.Faults[0] != spec {
		t.Errorf("result echoes faults %v, want [%s]", res.Faults, spec)
	}
	if len(res.Blocked) != len(wantBlocked) {
		t.Fatalf("blocked set has %d cells, want %d: %+v", len(res.Blocked), len(wantBlocked), res.Blocked)
	}
	for i, want := range wantBlocked {
		got := res.Blocked[i]
		if got.Cell != want.cell {
			t.Errorf("blocked[%d].Cell = %d, want %d", i, got.Cell, want.cell)
		}
		if s := p.OpString(got.Op); s != want.op {
			t.Errorf("blocked[%d].Op = %s, want %s", i, s, want.op)
		}
		if got.OpIdx != want.opIdx {
			t.Errorf("blocked[%d].OpIdx = %d, want %d", i, got.OpIdx, want.opIdx)
		}
		if r := got.Reason(p); r != want.reason {
			t.Errorf("blocked[%d].Reason = %q, want %q", i, r, want.reason)
		}
	}
	for name, want := range wantReceived {
		m, ok := p.MessageByName(name)
		if !ok {
			t.Fatalf("no message %q", name)
		}
		got := res.Received[m.ID]
		if len(got) != len(want) {
			t.Errorf("received %s = %v, want %v", name, got, want)
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("received %s[%d] = %v, want %v", name, i, got[i], want[i])
			}
		}
	}

	// The same analysis without the plan completes at the same budget —
	// the deadlock above is purely fault-induced.
	ok, err := systolic.Execute(a, systolic.ExecOptions{QueuesPerLink: 1, Capacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !ok.Completed {
		t.Errorf("fault-free run: %s, want completed", ok.Outcome())
	}
}

// TestGoldenDeadCellDeadlock: C2 dies at cycle 3, after relaying one
// word each way. Its second R(A) never issues, so C3 starves waiting
// for B's second word — the stall surfaces two cells downstream of
// the fault.
func TestGoldenDeadCellDeadlock(t *testing.T) {
	assertFaultDeadlockTrace(t, "cell:1:dead@3",
		4, 2,
		[]goldenBlock{
			{1, "R(A)", 2, "no word of A has arrived"},
			{2, "R(B)", 1, "no word of B has arrived"},
		},
		map[string][]systolic.Word{"A": {0}},
	)
}

// TestGoldenSeveredLinkDeadlock: the C2–C3 link severs at cycle 2
// with B's first word already queued but undeliverable — C2 jams on
// its full B queue, C3 never sees a word, and the deadlock is
// detected one cycle after the severance.
func TestGoldenSeveredLinkDeadlock(t *testing.T) {
	assertFaultDeadlockTrace(t, "link:1:sever@2",
		2, 1,
		[]goldenBlock{
			{1, "W(B)", 1, "queue for B is full (capacity 1) and the downstream never drains"},
			{2, "R(B)", 0, "no word of B has arrived"},
		},
		map[string][]systolic.Word{"A": {0}, "B": nil},
	)
}
