package machine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"systolic/internal/fault"
	"systolic/internal/linkmodel"
	"systolic/internal/model"
	"systolic/internal/topology"
)

// sparseChain builds a daisy chain over a linear array: cell i reads
// all of message i-1 before writing message i, so about two messages
// are ever live and, under a slow link model, nearly every cycle is
// empty for every cell (tools/perf's run-sparse chain).
func sparseChain(t testing.TB, cells, words int) *model.Program {
	t.Helper()
	b := model.NewBuilder()
	ids := make([]model.CellID, cells)
	for i := range ids {
		ids[i] = b.AddCell(fmt.Sprintf("C%d", i))
	}
	msgs := make([]model.MessageID, cells-1)
	for i := range msgs {
		msgs[i] = b.DeclareMessage(fmt.Sprintf("M%d", i), ids[i], ids[i+1], words)
	}
	b.WriteN(ids[0], msgs[0], words)
	for i := 1; i < cells-1; i++ {
		b.ReadN(ids[i], msgs[i-1], words)
		b.WriteN(ids[i], msgs[i], words)
	}
	b.ReadN(ids[cells-1], msgs[cells-2], words)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustLinkModel(t testing.TB, spec string) *linkmodel.Plan {
	t.Helper()
	p, err := linkmodel.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustFaults(t testing.TB, spec string) *fault.Plan {
	t.Helper()
	p, err := fault.ParseSpec(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestIdleCyclesSkipped is the executed-cycle gate for the idle-cycle
// fast-forward: host work must follow events, not simulated cycles,
// exactly where a link model or a fault plan stretches the schedule —
// and nowhere else.
func TestIdleCyclesSkipped(t *testing.T) {
	cells := 1024
	if raceEnabled {
		cells = 128
	}
	chainM := mustCompile(t, sparseChain(t, cells, 4), topology.Linear(cells))

	t.Run("delay64 chain executes at most an eighth of its cycles", func(t *testing.T) {
		ex := chainM.NewExec()
		opts := fcfs(2, 2)
		opts.LinkModel = mustLinkModel(t, "fixed,delay=64")
		res, err := ex.Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatalf("outcome: completed=%v deadlocked=%v timedOut=%v", res.Completed, res.Deadlocked, res.TimedOut)
		}
		if ex.e.executed > res.Cycles/8 {
			t.Fatalf("executed %d of %d simulated cycles, want ≤ 1/8", ex.e.executed, res.Cycles)
		}
		t.Logf("executed %d of %d simulated cycles", ex.e.executed, res.Cycles)
	})

	t.Run("unit latency executes every cycle", func(t *testing.T) {
		ex := chainM.NewExec()
		res, err := ex.Run(fcfs(2, 2))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed || ex.e.executed != res.Cycles {
			t.Fatalf("completed=%v, executed %d of %d simulated cycles, want all", res.Completed, ex.e.executed, res.Cycles)
		}
	})

	pipeM := mustCompile(t, pipeline(t, 3, 3), topology.Linear(3))

	t.Run("stall behind a dead cell skips the slow gate's period", func(t *testing.T) {
		ex := pipeM.NewExec()
		opts := fcfs(2, 1)
		opts.Faults = mustFaults(t, "cell:2:dead,link:0:slow=1048576")
		res, err := ex.Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		// C0's three words cross link 0 on its gate's first three open
		// cycles (0, 2²⁰, 2·2²⁰) and park behind dead C2; with no
		// candidate left for time to release, the deadlock is provable
		// on the gate's next open cycle.
		if !res.Deadlocked || res.Cycles != 3<<20 {
			t.Fatalf("deadlocked=%v at cycle %d, want a deadlock at %d", res.Deadlocked, res.Cycles, 3<<20)
		}
		if ex.e.executed >= 100 {
			t.Fatalf("executed %d cycles to report the stall, want < 100", ex.e.executed)
		}
	})

	t.Run("cancellation still lands on a huge delay", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		opts := fcfs(2, 1)
		opts.LinkModel = mustLinkModel(t, "fixed,delay=1048576")
		opts.Context = ctx
		if _, err := pipeM.Run(opts); !errors.Is(err, context.Canceled) {
			t.Fatalf("pre-cancelled run: err = %v, want context.Canceled", err)
		}
		// And the same run, not cancelled, completes in a handful of
		// executed cycles.
		ex := pipeM.NewExec()
		opts.Context = context.Background()
		res, err := ex.Run(opts)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed || ex.e.executed >= 100 {
			t.Fatalf("completed=%v after %d executed of %d simulated cycles, want completion in < 100", res.Completed, ex.e.executed, res.Cycles)
		}
	})
}

// cancelAfterJump is SyntheticLogic that, once cell has written its
// third word — by which time a slow=K gate on it has made the run jump
// at least twice — arms a timer that cancels the run shortly after.
type cancelAfterJump struct {
	SyntheticLogic
	cell   model.CellID
	delay  time.Duration
	cancel context.CancelFunc
	once   sync.Once
}

func (l *cancelAfterJump) Produce(cell model.CellID, msg model.MessageID, index int) Word {
	if cell == l.cell && index == 2 {
		l.once.Do(func() { time.AfterFunc(l.delay, l.cancel) })
	}
	return l.SyntheticLogic.Produce(cell, msg, index)
}

// TestCancelLandsAcrossFastForward: the loop polls its context once per
// executed cycle, however many simulated cycles the fast-forward put
// between two of them. A 64-cell wavefront whose middle cell issues
// once every 2³⁰ cycles spends its life jumping — about 8 200 jumps,
// 2⁴³ simulated cycles and a fifth of a second of host time if left
// alone — so a cancellation a few milliseconds after the first jumps
// finds the run deep in them, and the run must come back with the
// context's error rather than ride the jumps to completion.
func TestCancelLandsAcrossFastForward(t *testing.T) {
	const cells, words, slow = 64, 4096, 1 << 30
	m := mustCompile(t, pipeline(t, cells, words), topology.Linear(cells))
	ctx, cancel := context.WithCancel(context.Background())
	opts := fcfs(1, 2)
	opts.Faults = mustFaults(t, fmt.Sprintf("cell:%d:slow=%d", cells/2, slow))
	opts.Context = ctx
	opts.Logic = &cancelAfterJump{cell: cells / 2, delay: 3 * time.Millisecond, cancel: cancel}
	res, err := m.Run(opts)
	cancel()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("res=%v err=%v, want the context's error", res != nil, err)
	}
	var at int
	if _, serr := fmt.Sscanf(err.Error(), "machine: run cancelled after %d cycles", &at); serr != nil || at < 2*slow {
		t.Fatalf("%q: want a cancellation past the first two %d-cycle jumps", err, slow)
	}
}
