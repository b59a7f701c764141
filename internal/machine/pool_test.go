package machine

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"systolic/internal/assign"
	"systolic/internal/fault"
	"systolic/internal/linkmodel"
	"systolic/internal/topology"
)

// runOn makes one run of m on e the way a borrower of the process-wide
// pool does — init sizes e for m, release drops the run's references —
// but on an exec the caller holds, so a test decides which exec serves
// which run. The Result aliases e's buffers until e hands them over.
func runOn(m *Machine, e *exec, opts ExecOptions) (Result, error) {
	defer e.release()
	ex := Exec{m: m, e: e}
	res, err := ex.Run(opts)
	if err != nil {
		return Result{}, err
	}
	return *res, nil
}

// freshRun runs opts on m with a new exec that has never been pooled:
// every table is allocated, as on the process's first run. It is the
// reference the pooled paths are held to and the cold start
// TestAllocGateColdRun counts.
func freshRun(m *Machine, opts ExecOptions) (*Result, error) {
	res, err := runOn(m, new(exec), opts)
	if err != nil {
		return nil, err
	}
	return &res, nil
}

// TestPooledExecMatchesFresh: one exec serves a long run of
// configurations interleaved across two machines of different size —
// the FFT butterfly on 8 and on 32 cells, labeled — as the process-wide
// pool hands it from one borrower to the next, handing a run's buffers
// over to its Result as Machine.Run does or keeping them as a batch
// Exec does. Policy, queues, capacity, link model, faults and
// RecordTimeline vary from run to run; every Result must equal the same
// run on a fresh exec. A table
// init forgets to reset for the next machine shows here as a grant, a
// word or a report the fresh run does not have. A handed-over Result
// must still equal it once the exec has served every later run:
// nothing it holds may stay with the exec.
func TestPooledExecMatchesFresh(t *testing.T) {
	var machines [2]*Machine
	for i, logN := range []int{3, 5} {
		p, topo := butterfly(t, logN)
		labels := make([]int, p.NumMessages())
		for id := range labels {
			labels[id] = id/4 + 1
		}
		m, err := Compile(p, topo, nil, labels)
		if err != nil {
			t.Fatal(err)
		}
		machines[i] = m
	}
	policies := []func() assign.Policy{
		func() assign.Policy { return assign.Naive(assign.FCFS, 0) },
		func() assign.Policy { return assign.Naive(assign.LIFO, 0) },
		func() assign.Policy { return assign.Naive(assign.Random, 5) },
		assign.Compatible,
		assign.Static,
	}
	linkModels := []*linkmodel.Plan{nil, mustLinkModel(t, "fixed,delay=3"), mustLinkModel(t, "congestion,delay=2,threshold=1,max=4")}
	faultPlans := []*fault.Plan{nil, mustFaults(t, "cell:1:slow=2,link:0:slow=3@4"), mustFaults(t, "cell:2:dead@6")}
	runs := 240
	if testing.Short() || raceEnabled {
		runs = 60
	}
	rng := rand.New(rand.NewSource(1))
	e := new(exec)
	outcomes := map[string]int{}
	type kept struct {
		desc      string
		got, want *Result
	}
	var owned []kept
	for i := 0; i < runs; i++ {
		m := machines[i%2]
		policy := rng.Intn(len(policies))
		opts := ExecOptions{
			QueuesPerLink:  []int{1, 2, 4, 16}[rng.Intn(4)],
			Capacity:       1 + rng.Intn(3),
			RecordTimeline: rng.Intn(2) == 0,
			LinkModel:      linkModels[rng.Intn(len(linkModels))],
			Faults:         faultPlans[rng.Intn(len(faultPlans))],
		}
		handOver := rng.Intn(2) == 0
		desc := fmt.Sprintf("run %d (machine %d, policy %d, hand over %v): %+v", i, i%2, policy, handOver, opts)
		opts.Policy = policies[policy]()
		got, gotErr := runOn(m, e, opts)
		opts.Policy = policies[policy]()
		want, wantErr := freshRun(m, opts)
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: error %v, fresh exec %v", desc, gotErr, wantErr)
		}
		if gotErr != nil {
			outcomes["error"]++
			continue
		}
		outcomes[got.Outcome()]++
		if !reflect.DeepEqual(&got, want) {
			t.Fatalf("%s: the reused exec diverges from a fresh one\ngot:  %+v\nwant: %+v", desc, got, *want)
		}
		if handOver {
			e.handOver(&got)
			owned = append(owned, kept{desc, &got, want})
		}
	}
	for _, k := range owned {
		if !reflect.DeepEqual(k.got, k.want) {
			t.Fatalf("%s: the Result changed while the exec served later runs", k.desc)
		}
	}
	t.Logf("%d runs: %v", runs, outcomes)
	if outcomes["completed"] == 0 || outcomes["deadlocked"] == 0 {
		t.Fatalf("the runs must both complete and deadlock: %v", outcomes)
	}
}

// TestAllocGateFirstRunOnNewMachine: a newly compiled machine's first
// Run, after a run on another machine of the same shape, finds every
// table it needs in the pooled exec and allocates only what its Result
// keeps — the Result, the received arena and its index, the blocked
// counts, the queue stats — and the policy. Scratch cached per machine
// instead paid the whole table set again: 28 allocations at 256 and at
// 1024 cells.
func TestAllocGateFirstRunOnNewMachine(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const measured = 3
	for _, cells := range []int{256, 1024} {
		p, topo := pipeline(t, cells, 4), topology.Linear(cells)
		// One machine per call: AllocsPerRun's warm-up call runs the
		// first, which leaves the exec in the pool for the rest.
		machines := make([]*Machine, measured+1)
		for i := range machines {
			machines[i] = mustCompile(t, p, topo)
		}
		next := 0
		allocs := testing.AllocsPerRun(measured, func() {
			m := machines[next]
			next++
			res, err := m.Run(fcfs(2, 2))
			if err != nil || !res.Completed {
				t.Fatalf("%d cells: completed=%v, err=%v", cells, res != nil && res.Completed, err)
			}
		})
		t.Logf("first Run on a new %d-cell machine: %v allocations", cells, allocs)
		if allocs > 8 {
			t.Errorf("first Run on a new %d-cell machine allocates %v times, budget 8: run scratch is not shared across machines", cells, allocs)
		}
	}
}

// TestPoolDropsOversizedExec: an exec that ran at 2¹⁹ queues does not
// go back to the pool, where its queue table (about 80 MB here) would
// serve, and stay alive for, every small run after it; an exec from an
// ordinary run does.
func TestPoolDropsOversizedExec(t *testing.T) {
	m := mustCompile(t, chain(t, 2), topology.Linear(2))
	for _, c := range []struct {
		queues int
		pooled bool
	}{{1 << 19, false}, {maxPooledQueueSlots, true}, {2, true}} {
		e := new(exec)
		res, err := runOn(m, e, fcfs(c.queues, 1))
		if err != nil || !res.Completed {
			t.Fatalf("%d queues: completed=%v, err=%v", c.queues, res.Completed, err)
		}
		if e.pooled() != c.pooled {
			t.Errorf("%d queues: an exec holding %d queue slots goes back to the pool: %v, want %v", c.queues, cap(e.queues), e.pooled(), c.pooled)
		}
	}
}

// TestRunResultSizedToItsRun: a Machine.Run Result keeps no buffer a
// larger machine grew. Batch runs on a 512-cell machine leave their
// exec in the pool with 512-cell tables; a 4-cell Machine.Run after
// them, completed or deadlocked, returns a Result whose every slice
// uses at least half of its backing array.
func TestRunResultSizedToItsRun(t *testing.T) {
	big := mustCompile(t, pipeline(t, 512, 4), topology.Linear(512))
	small := mustCompile(t, pipeline(t, 4, 4), topology.Linear(4))
	for _, faults := range []*fault.Plan{nil, mustFaults(t, "cell:1:dead")} {
		opts := fcfs(2, 2)
		opts.Faults = faults
		ex := big.NewExec()
		if _, err := ex.Run(opts); err != nil {
			t.Fatal(err)
		}
		ex.Release()
		res, err := small.Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Completed == (faults != nil) {
			t.Fatalf("faults %v: outcome %s", faults, res.Outcome())
		}
		for name, lc := range map[string][2]int{
			"Received":            {len(res.Received), cap(res.Received)},
			"Blocked":             {len(res.Blocked), cap(res.Blocked)},
			"Stats.BlockedCycles": {len(res.Stats.BlockedCycles), cap(res.Stats.BlockedCycles)},
			"Stats.Queues":        {len(res.Stats.Queues), cap(res.Stats.Queues)},
		} {
			if lc[1] > 2*lc[0] {
				t.Errorf("faults %v: %s has len %d cap %d: the Result keeps a larger machine's buffer", faults, name, lc[0], lc[1])
			}
		}
	}
}
