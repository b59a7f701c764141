package core

import (
	"errors"
	"reflect"
	"runtime"
	"testing"

	"systolic/internal/fault"
	"systolic/internal/linkmodel"
	"systolic/internal/machine"
	"systolic/internal/model"
	"systolic/internal/topology"
	"systolic/internal/workload"
)

func optProgram(t *testing.T) *model.Program {
	t.Helper()
	b := model.NewBuilder()
	cs := b.AddCells("C", 2)
	m := b.DeclareMessage("M", cs[0], cs[1], 1)
	b.Write(cs[0], m)
	b.Read(cs[1], m)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestAnalyzeOptionErrors: nil inputs and negative capacities are
// rejected with typed *OptionError before any analysis state is
// built — the differential oracle feeds edge-case configs and relies
// on this failing cleanly instead of panicking.
func TestAnalyzeOptionErrors(t *testing.T) {
	p := optProgram(t)
	topo := topology.Linear(2)
	cases := []struct {
		name string
		call func() error
	}{
		{"nil program", func() error { _, err := Analyze(nil, topo, AnalyzeOptions{}); return err }},
		{"nil topology", func() error { _, err := Analyze(p, nil, AnalyzeOptions{}); return err }},
		{"negative capacity", func() error { _, err := Analyze(p, topo, AnalyzeOptions{Capacity: -1}); return err }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.call()
			var oe *OptionError
			if !errors.As(err, &oe) {
				t.Fatalf("err = %v, want *OptionError", err)
			}
			if oe.Op != "Analyze" {
				t.Errorf("Op = %q, want Analyze", oe.Op)
			}
		})
	}
}

// TestExecuteOptionErrors mirrors TestAnalyzeOptionErrors on the
// run-time side. core rejects only what it alone can judge, as an
// *OptionError; every option the machine sees is validated once, by
// the machine, and comes back as a *machine.ConfigError.
func TestExecuteOptionErrors(t *testing.T) {
	p := optProgram(t)
	a, err := Analyze(p, topology.Linear(2), AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		a     *Analysis
		opts  ExecOptions
		field string // the *machine.ConfigError field; "" = *OptionError
	}{
		{"nil analysis", nil, ExecOptions{}, ""},
		{"nil topology", &Analysis{Program: p}, ExecOptions{}, ""},
		{"negative queues", a, ExecOptions{QueuesPerLink: -1}, ""},
		{"negative capacity", a, ExecOptions{Capacity: -2}, "Capacity"},
		{"negative ext capacity", a, ExecOptions{ExtCapacity: -1}, "ExtCapacity"},
		{"negative ext penalty", a, ExecOptions{ExtPenalty: -1}, "ExtPenalty"},
		{"negative max cycles", a, ExecOptions{MaxCycles: -7}, ""},
		{"unknown policy", a, ExecOptions{Policy: PolicyKind(42)}, ""},
		{"fault out of range", a, ExecOptions{Faults: &fault.Plan{Cells: []fault.CellFault{{Cell: 9, Dead: true}}}}, "Faults"},
		{"link model out of range", a, ExecOptions{LinkModel: &linkmodel.Plan{Kind: linkmodel.Fixed, Overrides: []linkmodel.Override{{Link: 3, Delay: 2}}}}, "LinkModel"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Execute(tc.a, tc.opts)
			if tc.field != "" {
				var ce *machine.ConfigError
				if !errors.As(err, &ce) || ce.Field != tc.field {
					t.Fatalf("err = %v, want *machine.ConfigError on %s", err, tc.field)
				}
				return
			}
			var oe *OptionError
			if !errors.As(err, &oe) {
				t.Fatalf("err = %v, want *OptionError", err)
			}
			if oe.Op != "Execute" {
				t.Errorf("Op = %q, want Execute", oe.Op)
			}
		})
	}
}

// TestWorkersFieldIsInert: the deprecated ExecOptions.Workers changes
// nothing — the same Result for every value, no goroutine started on
// its account — except that a negative value is still refused.
func TestWorkersFieldIsInert(t *testing.T) {
	w, err := workload.PipelinedSort(workload.PipelinedSortOptions{Width: 256, Rounds: 4})
	if err != nil {
		t.Fatal(err)
	}
	a := analyzeWorkload(t, w)
	var want *machine.Result
	for _, workers := range []int{0, 1, 4, 64} {
		before := runtime.NumGoroutine()
		got, err := Execute(a, ExecOptions{Capacity: 2, Workers: workers})
		if err != nil || !got.Completed {
			t.Fatalf("Workers=%d: %v %v", workers, got, err)
		}
		if n := runtime.NumGoroutine(); n != before {
			t.Errorf("Workers=%d: %d goroutines after the run, %d before", workers, n, before)
		}
		if want == nil {
			want = got
		} else if !reflect.DeepEqual(want, got) {
			t.Errorf("Workers=%d changed the Result", workers)
		}
	}
	_, err = Execute(a, ExecOptions{Workers: -1})
	var oe *OptionError
	if !errors.As(err, &oe) || oe.Field != "Workers" {
		t.Fatalf("Workers=-1: err = %v, want an OptionError on Workers", err)
	}
}

// TestConfigErrors: the simulator's own boundary rejects broken
// configs with typed *machine.ConfigError — nil topology and mismatched
// routes at Compile, a nil policy, zero queues per link and negative
// capacity at Run.
func TestConfigErrors(t *testing.T) {
	p := optProgram(t)
	topo := topology.Linear(2)
	a, err := Analyze(p, topo, AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pol := DynamicCompatible.policy(0)
	cases := []struct {
		name   string
		topo   topology.Topology
		routes [][]topology.Hop
		opts   machine.ExecOptions
	}{
		{"nil topology", nil, nil, machine.ExecOptions{Policy: pol, QueuesPerLink: 1, Capacity: 1}},
		{"nil policy", topo, nil, machine.ExecOptions{QueuesPerLink: 1, Capacity: 1}},
		{"zero queues", topo, nil, machine.ExecOptions{Policy: pol, QueuesPerLink: 0, Capacity: 1}},
		{"negative capacity", topo, nil, machine.ExecOptions{Policy: pol, QueuesPerLink: 1, Capacity: -1}},
		{"routes mismatch", topo, make([][]topology.Hop, 5), machine.ExecOptions{Policy: pol, QueuesPerLink: 1, Capacity: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := machine.Compile(p, tc.topo, tc.routes, a.Labeling.Dense)
			if err == nil {
				_, err = m.Run(tc.opts)
			}
			var ce *machine.ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("err = %v, want *machine.ConfigError", err)
			}
		})
	}
}

// TestAnalyzeNilTopologyNoPanics: the historical failure mode was a
// nil-interface panic inside topology.Routes; it must be an error all
// the way down.
func TestAnalyzeNilTopologyNoPanics(t *testing.T) {
	p := optProgram(t)
	if _, err := topology.Routes(p, nil); err == nil {
		t.Error("topology.Routes(p, nil): want error")
	}
}

// TestLookaheadOptions: budget 0 is the strict procedure, the zero
// options; budget n turns lookahead on and lets every message skip n
// words, whatever its id.
func TestLookaheadOptions(t *testing.T) {
	if got := LookaheadOptions(0); !reflect.DeepEqual(got, AnalyzeOptions{}) {
		t.Errorf("LookaheadOptions(0) = %+v, want the zero options", got)
	}
	for _, n := range []int{1, 2, 7} {
		got := LookaheadOptions(n)
		if !got.Lookahead || got.Capacity != 0 || got.Picker != nil || got.BudgetOverride == nil {
			t.Fatalf("LookaheadOptions(%d) = %+v, want lookahead under a budget override alone", n, got)
		}
		for _, id := range []model.MessageID{0, 1, 41} {
			if b := got.BudgetOverride(id); b != n {
				t.Errorf("LookaheadOptions(%d): message %d gets budget %d", n, id, b)
			}
		}
	}
}
