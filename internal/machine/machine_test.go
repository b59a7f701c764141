package machine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"systolic/internal/assign"
	"systolic/internal/model"
	"systolic/internal/topology"
)

// chain builds a two-cell program moving words on one message.
func chain(t testing.TB, words int) *model.Program {
	t.Helper()
	b := model.NewBuilder()
	c1 := b.AddCell("C1")
	c2 := b.AddCell("C2")
	m := b.DeclareMessage("M", c1, c2, words)
	b.WriteN(c1, m, words)
	b.ReadN(c2, m, words)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// pipeline builds a cells-long wavefront: every interior cell
// word-interleaves R(M[i-1]) with W(M[i]), so after warm-up nearly
// every message is in flight at once.
func pipeline(t testing.TB, cells, words int) *model.Program {
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
		for w := 0; w < words; w++ {
			b.Read(ids[i], msgs[i-1])
			b.Write(ids[i], msgs[i])
		}
	}
	b.ReadN(ids[cells-1], msgs[cells-2], words)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustCompile(t testing.TB, p *model.Program, topo topology.Topology) *Machine {
	t.Helper()
	m, err := Compile(p, topo, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func fcfs(queues, capacity int) ExecOptions {
	return ExecOptions{Policy: assign.Naive(assign.FCFS, 0), QueuesPerLink: queues, Capacity: capacity}
}

func TestCompileValidation(t *testing.T) {
	p := chain(t, 2)
	topo := topology.Linear(2)
	cases := []struct {
		name  string
		check func() error
	}{
		{"nil program", func() error { _, err := Compile(nil, topo, nil, nil); return err }},
		{"nil topology", func() error { _, err := Compile(p, nil, nil, nil); return err }},
		{"routes mismatch", func() error {
			_, err := Compile(p, topo, make([][]topology.Hop, 5), nil)
			return err
		}},
		{"labels mismatch", func() error { _, err := Compile(p, topo, nil, []int{1, 2, 3}); return err }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.check()
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("err = %v, want *ConfigError", err)
			}
		})
	}
}

func TestRunValidation(t *testing.T) {
	m := mustCompile(t, chain(t, 2), topology.Linear(2))
	bad := []ExecOptions{
		{QueuesPerLink: 1, Capacity: 1}, // nil policy
		fcfs(0, 1),                      // zero queues
		fcfs(1, -1),                     // negative capacity
		{Policy: assign.Naive(assign.FCFS, 0), QueuesPerLink: 1, ExtCapacity: -1},             // negative ext
		{Policy: assign.Naive(assign.FCFS, 0), QueuesPerLink: 1, ExtPenalty: -1},              // negative penalty
		{Policy: assign.Naive(assign.FCFS, 0), QueuesPerLink: 1, Capacity: 0, ExtCapacity: 1}, // ext over latch
	}
	for i, opts := range bad {
		if _, err := m.Run(opts); err == nil {
			t.Errorf("bad options %d accepted", i)
		}
	}
}

// TestMachineReuseAcrossRuns is the compile-once contract: one
// machine, many runs, each fully independent.
func TestMachineReuseAcrossRuns(t *testing.T) {
	m := mustCompile(t, chain(t, 5), topology.Linear(2))
	var first *Result
	for i := 0; i < 10; i++ {
		res, err := m.Run(fcfs(1, 2))
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatalf("run %d: %s", i, res.Outcome())
		}
		if first == nil {
			first = res
			continue
		}
		if res.Cycles != first.Cycles || len(res.Received[0]) != len(first.Received[0]) {
			t.Fatalf("run %d diverged from run 0", i)
		}
	}
	// Results must not alias each other's buffers across runs.
	a, err := m.Run(fcfs(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Run(fcfs(1, 2))
	if err != nil {
		t.Fatal(err)
	}
	a.Received[0][0] = -1
	if b.Received[0][0] == -1 {
		t.Fatal("results share received-word buffers")
	}
}

// TestMachineConcurrentRuns drives one compiled machine from many
// goroutines — the sweep engine's usage — under differing options, all
// borrowing from the one process-wide exec pool.
func TestMachineConcurrentRuns(t *testing.T) {
	m := mustCompile(t, chain(t, 8), topology.Linear(2))
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				res, err := m.Run(fcfs(1+g%2, 1+i%3))
				if err != nil {
					errs <- err
					return
				}
				if !res.Completed {
					errs <- errors.New(res.Outcome())
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestMaxCyclesForOverflowGuard: pathological words × hops × factors
// must yield a typed ConfigError, not a silently wrapped (tiny or
// negative) cycle bound.
func TestMaxCyclesForOverflowGuard(t *testing.T) {
	if n, err := maxCyclesFor(100, 10, 1, 1); err != nil || n != 16*101*11+4096 {
		t.Fatalf("maxCyclesFor(100,10,1,1) = %d, %v", n, err)
	}
	if n, err := maxCyclesFor(0, 0, 1, 1); err != nil || n != 1<<14 {
		t.Fatalf("floor: maxCyclesFor(0,0,1,1) = %d, %v", n, err)
	}
	// A link-latency factor scales the work term before the additive
	// slack, and a factor below 1 is treated as unit.
	if n, err := maxCyclesFor(100, 10, 4, 1); err != nil || n != 16*101*11*4+4096 {
		t.Fatalf("maxCyclesFor(100,10,4,1) = %d, %v", n, err)
	}
	if n, err := maxCyclesFor(100, 10, 0, 0); err != nil || n != 16*101*11+4096 {
		t.Fatalf("maxCyclesFor(100,10,0,0) = %d, %v", n, err)
	}
	for _, tc := range [][4]int{
		{math.MaxInt / 16, 4, 1, 1},
		{math.MaxInt, math.MaxInt, 1, 1},
		{1 << 40, 1 << 40, 1, 1},
		{-1, 3, 1, 1},
		{math.MaxInt / 100, 4, 7, 1},       // fits at factor 1, overflows at 7
		{0, 0, 1, math.MaxInt/(1<<14) + 1}, // the floor times the fault factor
	} {
		_, err := maxCyclesFor(tc[0], tc[1], tc[2], tc[3])
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Fatalf("maxCyclesFor(%v) err = %v, want *ConfigError", tc, err)
		}
		if ce.Field != "MaxCycles" {
			t.Fatalf("overflow reported on field %q, want MaxCycles", ce.Field)
		}
	}
	// The largest fault factor that still fits is accepted exactly.
	f := math.MaxInt / (1 << 14)
	if n, err := maxCyclesFor(0, 0, 1, f); err != nil || n != f<<14 {
		t.Fatalf("maxCyclesFor(0,0,1,%d) = %d, %v; want %d", f, n, err, f<<14)
	}
}

func TestConfigErrorRendering(t *testing.T) {
	err := &ConfigError{Field: "QueuesPerLink", Reason: "0 < 1"}
	if !strings.Contains(err.Error(), "QueuesPerLink") {
		t.Fatalf("error %q does not name the field", err)
	}
}

func TestMachineAccessors(t *testing.T) {
	p := chain(t, 2)
	topo := topology.Linear(2)
	m := mustCompile(t, p, topo)
	if m.prog != p {
		t.Fatal("compiled program")
	}
	if m.topo != topo {
		t.Fatal("compiled topology")
	}
	if len(m.routes) != p.NumMessages() {
		t.Fatal("compiled routes")
	}
}

// TestRunCancel covers the mid-run context path: a cancelled context
// stops the run between cycles with a wrapped context error.
func TestRunCancel(t *testing.T) {
	m := mustCompile(t, pipeline(t, 64, 64), topology.Linear(64))

	// Already-cancelled context: deterministic immediate stop.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := fcfs(1, 2)
	opts.Context = ctx
	if _, err := m.Run(opts); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled run: err = %v, want context.Canceled", err)
	}

	// Cancel racing a live run: whichever wins, the error (if any) is
	// the context's.
	ctx, cancel = context.WithCancel(context.Background())
	opts.Context = ctx
	done := make(chan error, 1)
	go func() {
		_, err := m.Run(opts)
		done <- err
	}()
	time.Sleep(200 * time.Microsecond)
	cancel()
	if err := <-done; err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run: err = %v", err)
	}
}

// TestCancelErrorNamesCycles: the cancellation error is actionable —
// it says how far the run got and unwraps to the context error.
func TestCancelErrorNamesCycles(t *testing.T) {
	m := mustCompile(t, chain(t, 4), topology.Linear(2))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := fcfs(1, 1)
	opts.Context = ctx
	_, err := m.Run(opts)
	if err == nil || !strings.Contains(err.Error(), "cancelled after") {
		t.Fatalf("err = %v, want cycle-stamped cancellation", err)
	}
}

// TestConcurrentRunsAgree drives one machine from many goroutines on a
// pipeline wide enough to keep every ready set busy — the serving
// layer's usage, and the -race job's main target for the pooled
// scratch. Every run must produce the bytes of a run made alone.
func TestConcurrentRunsAgree(t *testing.T) {
	cells, runs := 48, 8
	if raceEnabled {
		cells, runs = 32, 4
	}
	m := mustCompile(t, pipeline(t, cells, 3), topology.Linear(cells))
	want, err := m.Run(fcfs(1, 2))
	if err != nil || !want.Completed {
		t.Fatalf("baseline: %v %v", want, err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < runs; i++ {
				got, err := m.Run(fcfs(1, 2))
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(want, got) {
					errs <- fmt.Errorf("goroutine %d run %d: diverged", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// panicLogic blows up on one specific read, emulating a buggy
// user-supplied CellLogic.
type panicLogic struct{ SyntheticLogic }

func (panicLogic) OnRead(_ model.CellID, msg model.MessageID, _ int, _ Word) {
	if msg == 40 {
		panic("boom: logic failure on message 40")
	}
}

// TestLogicPanicPropagates: a user Logic that panics mid-run surfaces
// to the Run caller as a recoverable panic on the caller's own
// goroutine, and the machine stays usable afterwards.
func TestLogicPanicPropagates(t *testing.T) {
	m := mustCompile(t, pipeline(t, 96, 4), topology.Linear(96))
	run := func() (rec any) {
		defer func() { rec = recover() }()
		opts := fcfs(1, 2)
		opts.Logic = panicLogic{}
		_, _ = m.Run(opts)
		return nil
	}
	rec := run()
	if rec == nil {
		t.Fatal("logic panic did not propagate to the Run caller")
	}
	if s, ok := rec.(string); !ok || !strings.Contains(s, "boom") {
		t.Fatalf("recovered %v, want the logic's panic value", rec)
	}
	res, err := m.Run(fcfs(1, 2))
	if err != nil || !res.Completed {
		t.Fatalf("machine unusable after recovered panic: %v %v", res, err)
	}
}

// TestSetupErrorLeavesExecReusable: a run that dies in Policy.Setup
// hands its scratch back to the pool, and the next run on the machine —
// which draws the same scratch — is unaffected.
func TestSetupErrorLeavesExecReusable(t *testing.T) {
	// Two messages compete on the one link, so Static().Setup refuses
	// with QueuesPerLink=1.
	b := model.NewBuilder()
	c1, c2 := b.AddCell("C1"), b.AddCell("C2")
	m1 := b.DeclareMessage("M1", c1, c2, 1)
	m2 := b.DeclareMessage("M2", c1, c2, 1)
	b.Write(c1, m1)
	b.Write(c1, m2)
	b.Read(c2, m1)
	b.Read(c2, m2)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := mustCompile(t, p, topology.Linear(2))
	want, err := m.Run(ExecOptions{Policy: assign.Static(), QueuesPerLink: 2, Capacity: 1})
	if err != nil || !want.Completed {
		t.Fatalf("baseline: %v %v", want, err)
	}
	for i := 0; i < 3; i++ {
		if _, err := m.Run(ExecOptions{Policy: assign.Static(), QueuesPerLink: 1, Capacity: 1}); err == nil {
			t.Fatal("under-budget static setup unexpectedly succeeded")
		}
		got, err := m.Run(ExecOptions{Policy: assign.Static(), QueuesPerLink: 2, Capacity: 1})
		if err != nil || !reflect.DeepEqual(want, got) {
			t.Fatalf("run %d after a Setup error: %v, result diverged=%v", i, err, !reflect.DeepEqual(want, got))
		}
	}
}
