package sweep

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"systolic/internal/core"
	"systolic/internal/machine"
)

// TestPooledScratchConcurrent: run scratch is one process-wide pool, so
// runs of different machines and the spans of concurrent sweeps hand
// the same execs to each other. Eight goroutines start at once: six run
// four machines of different shape under varied configurations
// (machine.Run borrows and returns an exec per run), and two run sweeps
// whose spans release their runners as they end. Every Result and every
// report must equal the one a sequential run produced. Run it under
// -race.
func TestPooledScratchConcurrent(t *testing.T) {
	cases := append(testCases(),
		Case{Name: "fft", Program: familyWorkload(3, 3).Program, Topology: familyWorkload(3, 3).Topology},
		Case{Name: "stencil", Program: familyWorkload(5, 2).Program, Topology: familyWorkload(5, 2).Topology},
	)
	analyses := make([]*core.Analysis, len(cases))
	for i, c := range cases {
		a, err := core.Analyze(c.Program, c.Topology, core.AnalyzeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		analyses[i] = a
	}
	var configs []core.ExecOptions
	for _, policy := range []core.PolicyKind{core.NaiveFCFS, core.StaticAssignment, core.DynamicCompatible} {
		for _, queues := range []int{0, 1, 2} {
			for _, capacity := range []int{1, 2} {
				configs = append(configs, core.ExecOptions{
					Policy: policy, QueuesPerLink: queues, Capacity: capacity,
					RecordTimeline: capacity == 2, Force: true,
				})
			}
		}
	}
	// A static policy under its budget is refused at Setup: the error
	// is part of what must not change.
	type run struct {
		res *machine.Result
		err string
	}
	execute := func(a *core.Analysis, opts core.ExecOptions) run {
		res, err := core.Execute(a, opts)
		if err != nil {
			return run{err: err.Error()}
		}
		return run{res: res}
	}
	want := make([][]run, len(analyses))
	for i, a := range analyses {
		for _, opts := range configs {
			want[i] = append(want[i], execute(a, opts))
		}
	}
	sweeps := []struct {
		cases []Case
		axes  Axes
	}{
		{cases[:2], Axes{
			Policies: []core.PolicyKind{core.NaiveFCFS, core.NaiveRandom, core.DynamicCompatible},
			Queues:   []int{0, 1, 2}, Capacities: []int{1, 2}, Lookaheads: []int{0, 2}, Seed: 3,
		}},
		{cases, Axes{
			Policies: []core.PolicyKind{core.NaiveFCFS, core.StaticAssignment},
			Queues:   []int{0, 1}, Capacities: []int{1, 3}, LinkModels: []string{"", "fixed,delay=2"}, Seed: 5,
		}},
	}
	wantReports := make([]*Report, len(sweeps))
	for i, sw := range sweeps {
		rep, err := Run(context.Background(), sw.cases, sw.axes, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		wantReports[i] = rep
	}

	const rounds = 6
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for r := 0; r < rounds; r++ {
				if g >= 6 {
					sw := sweeps[g-6]
					rep, err := Run(context.Background(), sw.cases, sw.axes, Options{Workers: 2})
					if err != nil {
						t.Errorf("sweep %d: %v", g-6, err)
						return
					}
					if !reflect.DeepEqual(rep, wantReports[g-6]) {
						t.Errorf("sweep %d, round %d: the report differs from the sequential one", g-6, r)
						return
					}
					continue
				}
				i := (g + r) % len(analyses)
				for c, opts := range configs {
					if got := execute(analyses[i], opts); !reflect.DeepEqual(got, want[i][c]) {
						t.Errorf("%s config %d (goroutine %d, round %d): the run differs from the sequential one", cases[i].Name, c, g, r)
						return
					}
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
}
