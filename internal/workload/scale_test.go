package workload

// Scale proof for the operator-graph generators: one 10k-cell
// pipelined sorting network runs end-to-end — generate, analyze,
// execute, verify — inside a wall-clock ceiling, and the compiled
// machine's per-Execute allocation count stays flat at that size
// (the same steady-state budget the 8-cell gates use). `-short`
// shrinks the array and skips the timing ceiling so the suite stays
// fast on developer machines.

import (
	"testing"
	"time"

	"systolic/internal/core"
	"systolic/internal/machine"
)

func TestPipelinedSortScale(t *testing.T) {
	width, rounds := 10000, 3
	ceiling := 60 * time.Second
	if testing.Short() {
		width = 2000
		ceiling = 0
	}
	start := time.Now()
	w, err := PipelinedSort(PipelinedSortOptions{Width: width, Rounds: rounds})
	if err != nil {
		t.Fatal(err)
	}
	if n := w.Program.NumCells(); n != width {
		t.Fatalf("generator built %d cells, want %d", n, width)
	}
	a, err := core.Analyze(w.Program, w.Topology, core.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !a.DeadlockFree {
		t.Fatal("10k-cell sorting network rejected by the analyzer")
	}
	res, err := core.Execute(a, core.ExecOptions{
		QueuesPerLink: w.DefaultQueues,
		Capacity:      w.DefaultCapacity,
		Logic:         w.Logic,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("run %s: %s", res.Outcome(), machine.DescribeBlocked(w.Program, res.Blocked))
	}

	// Verify by sequential replay: the residents must equal `rounds`
	// rounds of odd-even transposition applied directly.
	want := make([]float64, width)
	for i := range want {
		want[i] = float64((i*7+3)%(2*width) + 1)
	}
	for r := 0; r < rounds; r++ {
		for i := r % 2; i+1 < width; i += 2 {
			if want[i+1] < want[i] {
				want[i], want[i+1] = want[i+1], want[i]
			}
		}
	}
	got := w.Logic.(*exchangeLogic).Residents()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("resident[%d] = %g, want %g", i, got[i], want[i])
		}
	}
	if ceiling > 0 {
		if elapsed := time.Since(start); elapsed > ceiling {
			t.Errorf("generate+analyze+execute+verify took %v, ceiling %v", elapsed, ceiling)
		}
	}

	// Allocation gate: after a warm-up populates the process's pooled
	// scratch, repeat Executes on the 10k-cell array must cost the
	// same fixed allocation budget as an 8-cell one — nothing per-run
	// may scale with the array. Synthetic logic keeps repeats
	// state-free (the exchange logic's residents evolve across runs).
	if raceEnabled {
		t.Skip("allocation gate is not meaningful under -race")
	}
	run := func() {
		r, err := core.Execute(a, core.ExecOptions{
			QueuesPerLink: w.DefaultQueues,
			Capacity:      w.DefaultCapacity,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !r.Completed {
			t.Fatal(r.Outcome())
		}
	}
	run()
	if got := testing.AllocsPerRun(3, run); got > 48 {
		t.Errorf("%v allocs per Execute at %d cells, budget 48", got, width)
	}
}
