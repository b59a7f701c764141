package machine

import (
	"reflect"
	"sync"
	"testing"

	"systolic/internal/assign"
	"systolic/internal/model"
	"systolic/internal/topology"
)

// bidirectional builds simultaneous opposite-direction traffic over
// one link: A: C1→C2 and B: C2→C1, fully interleaved at both cells.
func bidirectional(t testing.TB, words int) *model.Program {
	t.Helper()
	b := model.NewBuilder()
	c1 := b.AddCell("C1")
	c2 := b.AddCell("C2")
	a := b.DeclareMessage("A", c1, c2, words)
	bb := b.DeclareMessage("B", c2, c1, words)
	for i := 0; i < words; i++ {
		b.Write(c1, a).Read(c1, bb)
		b.Read(c2, a).Write(c2, bb)
	}
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestDirectionalPoolsDoubleEffectiveQueues: one shared queue cannot
// serve both directions at once (B can never bind), while one queue
// per direction completes.
func TestDirectionalPoolsDoubleEffectiveQueues(t *testing.T) {
	p := bidirectional(t, 4)
	shared := fcfs(1, 1)
	res, err := compileRun(p, topology.Linear(2), shared)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deadlocked {
		t.Fatalf("shared single queue: %s, want deadlock", res.Outcome())
	}
	directional := shared
	directional.Policy = assign.Naive(assign.FCFS, 0)
	directional.DirectionalPools = true
	res, err = compileRun(p, topology.Linear(2), directional)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("directional pools: %s\n%s", res.Outcome(), DescribeBlocked(p, res.Blocked))
	}
}

// TestDirectionalPoolsEquivalentWhenEnoughQueues: with 2 shared queues
// the shared pool serves both directions; results agree.
func TestDirectionalPoolsEquivalentWhenEnoughQueues(t *testing.T) {
	p := bidirectional(t, 6)
	base := fcfs(2, 1)
	shared, err := compileRun(p, topology.Linear(2), base)
	if err != nil {
		t.Fatal(err)
	}
	dirCfg := base
	dirCfg.Policy = assign.Naive(assign.FCFS, 0)
	dirCfg.DirectionalPools = true
	directional, err := compileRun(p, topology.Linear(2), dirCfg)
	if err != nil {
		t.Fatal(err)
	}
	if !shared.Completed || !directional.Completed {
		t.Fatalf("shared=%s directional=%s", shared.Outcome(), directional.Outcome())
	}
	for id := range shared.Received {
		if len(shared.Received[id]) != len(directional.Received[id]) {
			t.Fatal("received word counts differ between pool modes")
		}
	}
}

// TestDirectionalPoolsWithCompatible runs the labeled pipeline under
// directional pools on multi-hop bidirectional traffic.
func TestDirectionalPoolsWithCompatible(t *testing.T) {
	b := model.NewBuilder()
	cs := b.AddCells("C", 3)
	a := b.DeclareMessage("A", cs[0], cs[2], 3)
	bb := b.DeclareMessage("B", cs[2], cs[0], 3)
	b.WriteN(cs[0], a, 3).ReadN(cs[0], bb, 3)
	b.ReadN(cs[2], a, 3).WriteN(cs[2], bb, 3)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m, err := Compile(p, topology.Linear(3), nil, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(ExecOptions{
		QueuesPerLink:    1,
		Capacity:         1,
		DirectionalPools: true,
		Policy:           assign.Compatible(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("run %s\n%s", res.Outcome(), DescribeBlocked(p, res.Blocked))
	}
}

// TestFirstDirectionalRunsConcurrent: eight goroutines make the first
// DirectionalPools runs of one fresh machine at once, so they race to
// build its directional pool table; each Result must equal that of the
// same run on a machine run sequentially. Run it under -race.
func TestFirstDirectionalRunsConcurrent(t *testing.T) {
	p, topo := butterfly(t, 4)
	labels := make([]int, p.NumMessages())
	for i := range labels {
		labels[i] = i/4 + 1
	}
	policies := []func() assign.Policy{
		assign.Compatible,
		func() assign.Policy { return assign.Naive(assign.FCFS, 0) },
		assign.Static,
		func() assign.Policy { return assign.Naive(assign.Random, 3) },
	}
	opts := func(g int) ExecOptions {
		return ExecOptions{Policy: policies[g%len(policies)](), QueuesPerLink: 16, Capacity: 2, DirectionalPools: true, RecordTimeline: true}
	}
	const goroutines = 8
	seq, err := Compile(p, topo, nil, labels)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*Result, goroutines)
	for g := range want {
		if want[g], err = seq.Run(opts(g)); err != nil {
			t.Fatal(err)
		}
	}
	m, err := Compile(p, topo, nil, labels)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]*Result, goroutines)
	errs := make([]error, goroutines)
	var start, wg sync.WaitGroup
	start.Add(1)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start.Wait()
			got[g], errs[g] = m.Run(opts(g))
		}()
	}
	start.Done()
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if !reflect.DeepEqual(got[g], want[g]) {
			t.Errorf("goroutine %d (%s): the concurrent first run's Result differs from the sequential one", g, got[g].Outcome())
		}
	}
}
