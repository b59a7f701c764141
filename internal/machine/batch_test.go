package machine

import (
	"reflect"
	"testing"

	"systolic/internal/assign"
	"systolic/internal/model"
	"systolic/internal/topology"
)

// crossing builds a two-cell program with one message each way over
// the single link, each cell writing before it reads: with one shared
// queue on the link the loser of the grant never drains the winner,
// so the run deadlocks; with two queues it completes. That makes one
// program cover both outcome shapes across a config grid.
func crossing(t testing.TB, words int) *model.Program {
	t.Helper()
	b := model.NewBuilder()
	c1 := b.AddCell("C1")
	c2 := b.AddCell("C2")
	m1 := b.DeclareMessage("M1", c1, c2, words)
	m2 := b.DeclareMessage("M2", c2, c1, words)
	b.WriteN(c1, m1, words)
	b.ReadN(c1, m2, words)
	b.WriteN(c2, m2, words)
	b.ReadN(c2, m1, words)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestExecMatchesRun replays a config grid through one Exec and
// through Machine.Run and demands byte-identical Results — the batch
// contract. The grid mixes completing and deadlocking points and
// several queue budgets, all back-to-back on the same Exec so
// retained-buffer reuse is actually exercised.
func TestExecMatchesRun(t *testing.T) {
	m := mustCompile(t, crossing(t, 6), topology.Linear(2))
	ex := m.NewExec()
	for _, queues := range []int{1, 2, 3} {
		for _, capacity := range []int{1, 2, 4} {
			opts := ExecOptions{
				Policy:        assign.Naive(assign.FCFS, 0),
				QueuesPerLink: queues,
				Capacity:      capacity,
			}
			want, err := m.Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.Policy = assign.Naive(assign.FCFS, 0) // policies are stateful: fresh instance per run
			got, err := ex.Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("q=%d cap=%d: Exec.Run diverges from Machine.Run\ngot:  %+v\nwant: %+v",
					queues, capacity, got, want)
			}
		}
	}
}

// TestExecValidationMatchesRun checks the shared prepare path: the
// batch entry point rejects bad configurations with exactly the
// errors Machine.Run produces.
func TestExecValidationMatchesRun(t *testing.T) {
	m := mustCompile(t, chain(t, 2), topology.Linear(2))
	ex := m.NewExec()
	bad := []ExecOptions{
		{QueuesPerLink: 1, Capacity: 1}, // nil policy
		fcfs(0, 1),                      // zero queues
		fcfs(1, -1),                     // negative capacity
	}
	for i, opts := range bad {
		_, runErr := m.Run(opts)
		_, exErr := ex.Run(opts)
		if runErr == nil || exErr == nil {
			t.Fatalf("bad options %d accepted: run=%v exec=%v", i, runErr, exErr)
		}
		if runErr.Error() != exErr.Error() {
			t.Errorf("bad options %d: error mismatch\nrun:  %v\nexec: %v", i, runErr, exErr)
		}
	}
	// A rejected config must not poison the Exec for later runs.
	res, err := ex.Run(fcfs(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("post-error run: %s", res.Outcome())
	}
}

// TestExecResultLifetime documents the aliasing contract: the Result
// of one Run is rewritten by the next, and a deep copy taken before
// the next Run stays stable.
func TestExecResultLifetime(t *testing.T) {
	m := mustCompile(t, chain(t, 4), topology.Linear(2))
	ex := m.NewExec()
	first, err := ex.Run(fcfs(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	cycles := first.Cycles
	words := append([]Word(nil), first.Received[0]...)
	if _, err := ex.Run(fcfs(2, 4)); err != nil {
		t.Fatal(err)
	}
	if cycles != first.Cycles {
		// Not an API promise — just documenting that the same Result
		// struct is rewritten in place.
		t.Logf("first.Cycles rewritten from %d to %d (expected aliasing)", cycles, first.Cycles)
	}
	again, err := ex.Run(fcfs(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if again.Cycles != cycles {
		t.Fatalf("same config re-run: %d cycles, want %d", again.Cycles, cycles)
	}
	if len(again.Received[0]) != len(words) {
		t.Fatalf("same config re-run: %d words, want %d", len(again.Received[0]), len(words))
	}
	for i, w := range again.Received[0] {
		if w != words[i] {
			t.Fatalf("word %d: %v, want %v", i, w, words[i])
		}
	}
}

// TestAllocGateDeadlockReport: a batch Exec that re-runs a deadlocking
// configuration allocates nothing once warm. The deadlock report is one
// CellBlock per stuck cell in the Exec's own buffer, carrying a stall
// cause; its words are rendered only when someone reads them
// (CellBlock.Reason). A reason string built at the deadlock cost one
// allocation per stuck cell on every deadlocked sweep point.
func TestAllocGateDeadlockReport(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	m := mustCompile(t, crossing(t, 6), topology.Linear(2))
	ex := m.NewExec()
	defer ex.Release()
	opts := fcfs(1, 1) // FCFS re-Setup allocates nothing, so one instance serves every run
	allocs := testing.AllocsPerRun(20, func() {
		res, err := ex.Run(opts)
		if err != nil || !res.Deadlocked || len(res.Blocked) != 2 {
			t.Fatalf("want a deadlock with both cells stuck: err=%v, result %+v", err, res)
		}
	})
	t.Logf("deadlocked batch run: %v allocations", allocs)
	if allocs != 0 {
		t.Errorf("a warm deadlocked batch run allocates %v times, want 0", allocs)
	}
}
