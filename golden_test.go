// Golden-trace regression tests for the §4 queue-induced deadlocks of
// Figs 8 and 9: not just "deadlocked == true" but the exact deadlock
// cycle, the exact blocked-cell set (cell, op, op index, reason), and
// the words delivered before the stall. Any simulator or policy change
// that shifts these traces must be looked at, not waved through.
package systolic_test

import (
	"testing"

	"systolic"
)

// goldenBlock is one expected entry of the blocked-cell report.
type goldenBlock struct {
	cell   systolic.CellID
	op     string // rendered, e.g. "W(B)"
	opIdx  int
	reason string
}

func assertDeadlockTrace(t *testing.T, w *systolic.Workload, policy systolic.PolicyKind,
	wantCycle int, wantBlocked []goldenBlock, wantReceived map[string][]systolic.Word) {
	t.Helper()
	a, err := systolic.Analyze(w.Program, w.Topology, systolic.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.MinQueuesDynamic != 2 {
		t.Fatalf("MinQueuesDynamic = %d, want 2 (related messages share a label)", a.MinQueuesDynamic)
	}
	res, err := systolic.Execute(a, systolic.ExecOptions{
		Policy: policy, QueuesPerLink: 1, Capacity: 1, Force: true,
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
	if len(res.Blocked) != len(wantBlocked) {
		t.Fatalf("blocked set has %d cells, want %d: %+v", len(res.Blocked), len(wantBlocked), res.Blocked)
	}
	for i, want := range wantBlocked {
		got := res.Blocked[i]
		if got.Cell != want.cell {
			t.Errorf("blocked[%d].Cell = %d, want %d", i, got.Cell, want.cell)
		}
		if s := w.Program.OpString(got.Op); s != want.op {
			t.Errorf("blocked[%d].Op = %s, want %s", i, s, want.op)
		}
		if got.OpIdx != want.opIdx {
			t.Errorf("blocked[%d].OpIdx = %d, want %d", i, got.OpIdx, want.opIdx)
		}
		if r := got.Reason(w.Program); r != want.reason {
			t.Errorf("blocked[%d].Reason = %q, want %q", i, r, want.reason)
		}
	}
	for name, want := range wantReceived {
		m, ok := w.Program.MessageByName(name)
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

	// The same analysis at the Theorem 1 budget (2 queues) completes —
	// the deadlock above is purely queue-induced.
	ok, err := systolic.Execute(a, systolic.ExecOptions{
		Policy: policy, QueuesPerLink: 2, Capacity: 1, Force: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ok.Completed {
		t.Errorf("with 2 queues/link: %s, want completed", ok.Outcome())
	}
}

// TestGoldenFig8Deadlock: C3 reads A and B interleaved, so the two
// messages are related and share a label; with a single queue on each
// link the compatible policy cannot grant the size-2 equal-label
// group at all and the system stalls before any word moves.
func TestGoldenFig8Deadlock(t *testing.T) {
	assertDeadlockTrace(t, systolic.Fig8Workload(), systolic.DynamicCompatible,
		1,
		[]goldenBlock{
			{0, "W(B)", 1, "queue for B is full (capacity 1) and the downstream never drains"},
			{1, "W(A)", 0, "no queue bound for A on its first link"},
			{2, "R(A)", 0, "no queue bound for A on its last link"},
		},
		map[string][]systolic.Word{"A": nil, "B": nil},
	)
}

// TestGoldenFig8FCFS: the label-oblivious baseline makes one cycle of
// progress (A's first word reaches C3) before B — which C3 must read
// next — finds A camped on the C2–C3 link's only queue: the exact
// §4 story.
func TestGoldenFig8FCFS(t *testing.T) {
	assertDeadlockTrace(t, systolic.Fig8Workload(), systolic.NaiveFCFS,
		2,
		[]goldenBlock{
			{0, "W(B)", 1, "queue for B is full (capacity 1) and the downstream never drains"},
			{1, "W(A)", 2, "queue for A is full (capacity 1) and the downstream never drains"},
			{2, "R(B)", 1, "no queue bound for B on its last link"},
		},
		map[string][]systolic.Word{"A": {0}, "B": nil},
	)
}

// TestGoldenFig9Deadlock is the write-side mirror: C1 writes A and B
// interleaved, the related pair needs two queues on C1–C2, one queue
// stalls the program at once.
func TestGoldenFig9Deadlock(t *testing.T) {
	assertDeadlockTrace(t, systolic.Fig9Workload(), systolic.DynamicCompatible,
		1,
		[]goldenBlock{
			{0, "W(A)", 0, "no queue bound for A on its first link"},
			{1, "R(A)", 0, "no queue bound for A on its last link"},
			{2, "R(B)", 0, "no word of B has arrived"},
		},
		map[string][]systolic.Word{"A": nil, "B": nil},
	)
}

// TestGoldenFig9FCFS: FCFS moves A's first word, then B cannot obtain
// the C1–C2 queue A still holds while C1 has already advanced to
// W(B).
func TestGoldenFig9FCFS(t *testing.T) {
	assertDeadlockTrace(t, systolic.Fig9Workload(), systolic.NaiveFCFS,
		2,
		[]goldenBlock{
			{0, "W(B)", 1, "no queue bound for B on its first link"},
			{1, "R(A)", 1, "no word of A has arrived"},
			{2, "R(B)", 0, "no queue bound for B on its last link"},
		},
		map[string][]systolic.Word{"A": {0}, "B": nil},
	)
}

// TestGoldenStaticRefusal: the static §7.1 policy cannot even set up
// with one queue per link on Fig 8/9 — each link carries two
// competing messages and static assignment is one queue per message
// for its whole life.
func TestGoldenStaticRefusal(t *testing.T) {
	for _, w := range []*systolic.Workload{systolic.Fig8Workload(), systolic.Fig9Workload()} {
		a, err := systolic.Analyze(w.Program, w.Topology, systolic.AnalyzeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		_, err = systolic.Execute(a, systolic.ExecOptions{
			Policy: systolic.StaticAssignment, QueuesPerLink: 1, Capacity: 1, Force: true,
		})
		if err == nil {
			t.Errorf("%s: static policy with 1 queue/link: want setup refusal", w.Name)
		}
	}
}
