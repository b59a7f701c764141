package refsim

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"systolic/internal/assign"
	"systolic/internal/core"
	"systolic/internal/fault"
	"systolic/internal/gen"
	"systolic/internal/linkmodel"
	"systolic/internal/machine"
)

// TestPlansLoweredEveryRun holds the machine, which lowers a run's
// fault and link-timing plans into tables its exec keeps (and renders
// fault descriptions only for entries it has not rendered last), to the
// reference engine, which lowers into fresh tables every run. The plans
// are changed in place between runs — same pointers, same backing
// arrays — and each one is also run as a copy at another address,
// through one held Exec, one core.Runner and Machine.Run in turn. Every
// Result's Faults is then written into: no later Result may show it,
// and every Machine.Run Result kept must still equal the reference's
// after all the runs.
func TestPlansLoweredEveryRun(t *testing.T) {
	sc, err := gen.Generate(2, gen.Options{Cells: 8})
	if err != nil {
		t.Fatal(err)
	}
	fm := newFuzzMachine(t, sc.Program, sc.Topology, 2, 0)
	if fm.a == nil {
		t.Fatal("scenario is not deadlock-free; core.Runner would refuse it")
	}
	links := len(sc.Topology.Links())
	if sc.Program.NumCells() < 3 || links < 2 {
		t.Fatalf("scenario has %d cells and %d links; the edits need 3 and 2", sc.Program.NumCells(), links)
	}
	faults := &fault.Plan{
		Cells: []fault.CellFault{{Cell: 1, Factor: 2}, {Cell: 2, Factor: 3, From: 5}},
		Links: append(make([]fault.LinkFault, 0, 2), fault.LinkFault{Link: 0, Factor: 3, From: 2}),
	}
	lm := &linkmodel.Plan{Kind: linkmodel.Fixed, Delay: 2}
	edits := []struct {
		name string
		edit func()
	}{
		{"as built", func() {}},
		{"factors changed", func() { faults.Cells[0].Factor, faults.Links[0].From = 4, 0; lm.Delay = 3 }},
		{"a link fault appended in place", func() {
			faults.Links = append(faults.Links, fault.LinkFault{Link: 1, Severed: true, From: 6})
			lm.Overrides = append(lm.Overrides, linkmodel.Override{Link: 1, Delay: 5})
		}},
		{"a cell fault dropped", func() {
			faults.Cells = faults.Cells[:1]
			lm.Kind, lm.Delay, lm.MaxExtra, lm.Overrides = linkmodel.Congestion, 1, 2, nil
		}},
		{"every fault a no-op", func() {
			faults.Cells[0].Factor, faults.Links = 1, faults.Links[:0]
			lm.MaxExtra = 0
		}},
		{"faults back", func() { faults.Cells[0].Dead, faults.Links = true, faults.Links[:2]; lm.Kind = linkmodel.Fixed }},
	}
	ex := fm.m.NewExec()
	defer ex.Release()
	runner := core.NewRunner(fm.a)
	defer runner.Release()
	var kept []handedOver
	scribble := func(res *machine.Result) {
		for i := range res.Faults {
			res.Faults[i] = "scribbled"
		}
	}
	for _, e := range edits {
		e.edit()
		copies := []struct {
			at     string
			faults *fault.Plan
			lm     *linkmodel.Plan
		}{
			{"the edited plans", faults, lm},
			{"copies at other addresses", &fault.Plan{Cells: slices.Clone(faults.Cells), Links: slices.Clone(faults.Links)},
				&linkmodel.Plan{Kind: lm.Kind, Delay: lm.Delay, MaxExtra: lm.MaxExtra, Overrides: slices.Clone(lm.Overrides)}},
		}
		for _, c := range copies {
			cfg := machine.ExecOptions{QueuesPerLink: 2, Capacity: 2, Policy: assign.Compatible(), Faults: c.faults, LinkModel: c.lm}
			desc := fmt.Sprintf("%s (%s, faults %q, link model %q)", e.name, c.at, c.faults, c.lm)

			got, err := ex.Run(freshPolicy(cfg))
			fm.check(t, desc+" held Exec", nil, nil, cfg, got, err)
			scribble(got)

			got, err = runner.Execute(core.ExecOptions{
				Policy: core.DynamicCompatible, Force: true, QueuesPerLink: 2, Capacity: 2,
				Faults: c.faults, LinkModel: c.lm,
			})
			fm.check(t, desc+" Runner", fm.a.Routes, fm.a.Labeling.Dense, cfg, got, err)
			scribble(got)

			got, err = fm.m.Run(freshPolicy(cfg))
			want := fm.check(t, desc+" Machine.Run", nil, nil, cfg, got, err)
			kept = append(kept, handedOver{desc, got, want})
			scribbled, err := fm.m.Run(freshPolicy(cfg))
			fm.check(t, desc+" Machine.Run again", nil, nil, cfg, scribbled, err)
			scribble(scribbled)
		}
	}
	for _, k := range kept {
		if !reflect.DeepEqual(k.got, k.want) {
			t.Errorf("%s: the Machine.Run Result changed by later runs\ngot:  %+v\nwant: %+v", k.desc, k.got, k.want)
		}
	}
}
