package machine

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"systolic/internal/model"
	"systolic/internal/topology"
)

// compileRun is the one-shot path: compile p over topo, run it once.
func compileRun(p *model.Program, topo topology.Topology, opts ExecOptions) (*Result, error) {
	m, err := Compile(p, topo, nil, nil)
	if err != nil {
		return nil, err
	}
	return m.Run(opts)
}

func TestSingleHopPipelineCompletes(t *testing.T) {
	p := chain(t, 5)
	res, err := compileRun(p, topology.Linear(2), fcfs(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("outcome %s", res.Outcome())
	}
	if len(res.Received[0]) != 5 {
		t.Fatalf("received %d words", len(res.Received[0]))
	}
	// Synthetic values preserve order: word i = msg*1e6 + i.
	for i, w := range res.Received[0] {
		if w != Word(i) {
			t.Fatalf("word %d = %v (reordered?)", i, w)
		}
	}
}

func TestThroughputIsPipelined(t *testing.T) {
	// n words over 1 hop with capacity 1 should take ~n+O(1) cycles,
	// not n*k.
	p := chain(t, 50)
	res, err := compileRun(p, topology.Linear(2), fcfs(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles > 60 {
		t.Fatalf("50 words took %d cycles; pipelining broken", res.Cycles)
	}
}

func TestMultiHopTransport(t *testing.T) {
	// A: C1→C4 over 3 links.
	b := model.NewBuilder()
	cs := b.AddCells("C", 4)
	a := b.DeclareMessage("A", cs[0], cs[3], 6)
	b.WriteN(cs[0], a, 6)
	b.ReadN(cs[3], a, 6)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := compileRun(p, topology.Linear(4), fcfs(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("outcome %s: %s", res.Outcome(), DescribeBlocked(p, res.Blocked))
	}
	for i, w := range res.Received[0] {
		if w != Word(i) {
			t.Fatalf("multi-hop reordered word %d = %v", i, w)
		}
	}
	// One word per hop per cycle: makespan ≈ words + hops.
	if res.Cycles > 6+3+4 {
		t.Fatalf("multi-hop makespan %d too slow", res.Cycles)
	}
}

func TestRendezvousCapacityZero(t *testing.T) {
	// P2-like exchange with both cells reading first: fine at cap 0
	// when programs are strictly deadlock-free.
	b := model.NewBuilder()
	c1 := b.AddCell("C1")
	c2 := b.AddCell("C2")
	a := b.DeclareMessage("A", c1, c2, 2)
	bb := b.DeclareMessage("B", c2, c1, 2)
	b.Write(c1, a).Read(c1, bb).Write(c1, a).Read(c1, bb)
	b.Read(c2, a).Write(c2, bb).Read(c2, a).Write(c2, bb)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := compileRun(p, topology.Linear(2), fcfs(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("rendezvous run %s: %s", res.Outcome(), DescribeBlocked(p, res.Blocked))
	}
}

func TestCapacityZeroDeadlocksP2(t *testing.T) {
	// P2 proper: both write first. With pure latches (no buffering)
	// this deadlocks at run time exactly as §3.2 says.
	b := model.NewBuilder()
	c1 := b.AddCell("C1")
	c2 := b.AddCell("C2")
	a := b.DeclareMessage("A", c1, c2, 1)
	bb := b.DeclareMessage("B", c2, c1, 1)
	b.Write(c1, a).Read(c1, bb)
	b.Write(c2, bb).Read(c2, a)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := compileRun(p, topology.Linear(2), fcfs(2, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deadlocked {
		t.Fatalf("P2 at capacity 0: %s, want deadlock", res.Outcome())
	}
	// …and with one word of buffering it completes (§8).
	res, err = compileRun(p, topology.Linear(2), fcfs(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("P2 at capacity 1: %s", res.Outcome())
	}
}

func TestCapacityZeroRejectsMultiHop(t *testing.T) {
	b := model.NewBuilder()
	cs := b.AddCells("C", 3)
	a := b.DeclareMessage("A", cs[0], cs[2], 1)
	b.Write(cs[0], a)
	b.Read(cs[2], a)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := compileRun(p, topology.Linear(3), fcfs(1, 0)); err == nil {
		t.Fatal("capacity 0 with a multi-hop route accepted")
	}
}

func TestQueueReuseAcrossMessages(t *testing.T) {
	// Two sequential messages share the single queue: binding must be
	// released and reused (§2.3).
	b := model.NewBuilder()
	c1 := b.AddCell("C1")
	c2 := b.AddCell("C2")
	a := b.DeclareMessage("A", c1, c2, 3)
	bb := b.DeclareMessage("B", c1, c2, 3)
	b.WriteN(c1, a, 3).WriteN(c1, bb, 3)
	b.ReadN(c2, a, 3).ReadN(c2, bb, 3)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c := fcfs(1, 2)
	c.RecordTimeline = true
	res, err := compileRun(p, topology.Linear(2), c)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("outcome %s", res.Outcome())
	}
	if res.Stats.Releases != 2 {
		t.Fatalf("releases=%d, want 2", res.Stats.Releases)
	}
	// Timeline: bind A, release A, bind B, release B on queue 0.
	if len(res.Timeline) != 4 {
		t.Fatalf("timeline %v", res.Timeline)
	}
	if !res.Timeline[0].Bound || res.Timeline[1].Bound || !res.Timeline[2].Bound {
		t.Fatalf("timeline order wrong: %v", res.Timeline)
	}
	if res.Timeline[2].Msg != bb {
		t.Fatalf("queue not rebound to B: %v", res.Timeline)
	}
	_ = a
}

func TestDeadlockDetectionReportsBlockedCells(t *testing.T) {
	// Receiver wants B first but only A's queue fits (1 queue, and A
	// hogs it forever since its reader never comes first).
	b := model.NewBuilder()
	c1 := b.AddCell("C1")
	c2 := b.AddCell("C2")
	a := b.DeclareMessage("A", c1, c2, 2)
	bb := b.DeclareMessage("B", c1, c2, 2)
	b.WriteN(c1, a, 2).WriteN(c1, bb, 2)
	b.ReadN(c2, bb, 2).ReadN(c2, a, 2) // reads B first: strictly deadlocked
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := compileRun(p, topology.Linear(2), fcfs(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deadlocked {
		t.Fatalf("outcome %s", res.Outcome())
	}
	if len(res.Blocked) != 2 {
		t.Fatalf("blocked=%v", res.Blocked)
	}
	desc := DescribeBlocked(p, res.Blocked)
	if !strings.Contains(desc, "C1") || !strings.Contains(desc, "C2") {
		t.Fatalf("report %q", desc)
	}
}

func TestDeadlockDetectedQuickly(t *testing.T) {
	// The no-progress cycle detector should fire in O(work), not run
	// to MaxCycles.
	b := model.NewBuilder()
	c1 := b.AddCell("C1")
	c2 := b.AddCell("C2")
	a := b.DeclareMessage("A", c1, c2, 1)
	bb := b.DeclareMessage("B", c2, c1, 1)
	b.Read(c1, bb).Write(c1, a)
	b.Read(c2, a).Write(c2, bb)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := compileRun(p, topology.Linear(2), fcfs(2, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deadlocked || res.Cycles > 8 {
		t.Fatalf("outcome %s after %d cycles", res.Outcome(), res.Cycles)
	}
}

func TestMaxCyclesTimesOut(t *testing.T) {
	p := chain(t, 100)
	c := fcfs(1, 1)
	c.MaxCycles = 3
	res, err := compileRun(p, topology.Linear(2), c)
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut {
		t.Fatalf("outcome %s, want timed-out", res.Outcome())
	}
}

func TestConfigValidation(t *testing.T) {
	p := chain(t, 1)
	if _, err := compileRun(p, nil, fcfs(1, 1)); err == nil {
		t.Fatal("nil topology accepted")
	}
	if _, err := compileRun(p, topology.Linear(2), ExecOptions{QueuesPerLink: 1, Capacity: 1}); err == nil {
		t.Fatal("nil policy accepted")
	}
	if _, err := compileRun(p, topology.Linear(2), fcfs(0, 1)); err == nil {
		t.Fatal("zero queues accepted")
	}
	if _, err := compileRun(p, topology.Linear(2), fcfs(1, -1)); err == nil {
		t.Fatal("negative capacity accepted")
	}
	c := fcfs(1, 0)
	c.ExtCapacity = 1
	if _, err := compileRun(p, topology.Linear(2), c); err == nil {
		t.Fatal("extension over latch accepted")
	}
}

// TestRingBoundedByLargestMessage: a bound queue never holds more than
// one message's words, so a capacity far beyond the largest message
// runs exactly like a capacity equal to it, without a ring to match.
func TestRingBoundedByLargestMessage(t *testing.T) {
	// C2 reads B before A, so all of A (4 words) must park in the
	// queue: the largest message fills its ring.
	b := model.NewBuilder()
	c1 := b.AddCell("C1")
	c2 := b.AddCell("C2")
	a := b.DeclareMessage("A", c1, c2, 4)
	bb := b.DeclareMessage("B", c1, c2, 1)
	b.WriteN(c1, a, 4).Write(c1, bb)
	b.Read(c2, bb).ReadN(c2, a, 4)
	p := b.MustBuild()
	m, err := Compile(p, topology.Linear(2), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.Run(fcfs(2, 4))
	if err != nil {
		t.Fatal(err)
	}
	if !want.Completed {
		t.Fatalf("capacity 4: %s", want.Outcome())
	}
	for _, capacity := range []int{1 << 34, math.MaxInt} {
		got, err := m.Run(fcfs(2, capacity))
		if err != nil {
			t.Fatalf("capacity %d: %v", capacity, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("capacity %d ran differently from capacity 4:\n%+v\nvs\n%+v", capacity, got, want)
		}
	}
}

// TestOverflowingCountsAreConfigErrors: a capacity plus extension that
// does not fit an int, or a queue count over all pools above
// maxQueueSlots (10⁸ queues once ran the process out of memory, 2⁴⁰
// panicked in makeslice), is refused before anything is sized by it.
func TestOverflowingCountsAreConfigErrors(t *testing.T) {
	m, err := Compile(chain(t, 2), topology.Linear(2), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ext := fcfs(1, math.MaxInt)
	ext.ExtCapacity = 1
	cases := map[string]ExecOptions{"capacity": ext}
	for name, q := range map[string]int{"queues 1e8": 1e8, "queues 2^40": 1 << 40, "queues overflow": math.MaxInt/2 + 1} {
		cases[name] = fcfs(q, 1)
	}
	for name, opts := range cases {
		var cerr *ConfigError
		if _, err := m.Run(opts); !errors.As(err, &cerr) {
			t.Errorf("%s: err %v, want a ConfigError", name, err)
		}
	}
}

func TestOneOpPerCellPerCycle(t *testing.T) {
	// A cell that reads then writes cannot do both in one cycle: n
	// round trips need ≥ 2n cycles.
	b := model.NewBuilder()
	c1 := b.AddCell("C1")
	c2 := b.AddCell("C2")
	a := b.DeclareMessage("A", c1, c2, 4)
	bb := b.DeclareMessage("B", c2, c1, 4)
	for i := 0; i < 4; i++ {
		b.Write(c1, a).Read(c1, bb)
		b.Read(c2, a).Write(c2, bb)
	}
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	res, err := compileRun(p, topology.Linear(2), fcfs(2, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("outcome %s", res.Outcome())
	}
	if res.Cycles < 8 {
		t.Fatalf("%d cycles for 8 sequential ops per cell: issue width violated", res.Cycles)
	}
}

func TestBlockedCyclesAccounting(t *testing.T) {
	p := chain(t, 3)
	res, err := compileRun(p, topology.Linear(2), fcfs(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	// C2 is blocked at least on cycle 0 (no word yet).
	if res.Stats.BlockedCycles[1] == 0 {
		t.Fatal("receiver never counted blocked")
	}
	if len(res.Stats.Queues) != 1 {
		t.Fatalf("queue stats %v", res.Stats.Queues)
	}
	if res.Stats.Queues[0].Stats.WordsPassed != 3 {
		t.Fatalf("queue words=%d", res.Stats.Queues[0].Stats.WordsPassed)
	}
}

func TestExtensionIncreasesEffectiveCapacity(t *testing.T) {
	// Strictly deadlocked without buffering: C1 writes all of A then
	// all of B, C2 reads B first. Needs A fully buffered: capacity 4
	// or capacity 2 + extension 2.
	build := func() *model.Program {
		b := model.NewBuilder()
		c1 := b.AddCell("C1")
		c2 := b.AddCell("C2")
		a := b.DeclareMessage("A", c1, c2, 4)
		bb := b.DeclareMessage("B", c1, c2, 1)
		b.WriteN(c1, a, 4).Write(c1, bb)
		b.Read(c2, bb).ReadN(c2, a, 4)
		p, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	p := build()
	base := fcfs(2, 2)
	res, err := compileRun(p, topology.Linear(2), base)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deadlocked {
		t.Fatalf("capacity 2 alone: %s, want deadlock", res.Outcome())
	}
	ext := base
	ext.ExtCapacity = 2
	ext.ExtPenalty = 1
	res, err = compileRun(p, topology.Linear(2), ext)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("with extension: %s", res.Outcome())
	}
	var extAccesses int
	for _, qs := range res.Stats.Queues {
		extAccesses += qs.Stats.ExtAccesses
	}
	if extAccesses == 0 {
		t.Fatal("extension never used despite being required")
	}
}

func TestSyntheticLogicEncodesMessageAndIndex(t *testing.T) {
	var l SyntheticLogic
	if l.Produce(0, 2, 7) != Word(2*1e6+7) {
		t.Fatal("synthetic encoding wrong")
	}
}

func TestResultOutcomeString(t *testing.T) {
	r := &Result{Completed: true}
	if r.Outcome() != "completed" {
		t.Fatal("outcome string wrong")
	}
	r = &Result{Deadlocked: true}
	if r.Outcome() != "deadlocked" {
		t.Fatal("outcome string wrong")
	}
	r = &Result{}
	if r.Outcome() != "timed-out" {
		t.Fatal("outcome string wrong")
	}
}
