package refsim

import (
	"fmt"
	"reflect"
	"testing"

	"systolic/internal/core"
	"systolic/internal/fault"
	"systolic/internal/gen"
	"systolic/internal/label"
	"systolic/internal/machine"
	"systolic/internal/model"
	"systolic/internal/topology"
)

// fuzzMachine is one of the two machine sizes a FuzzEquivalence
// sequence runs over: a scenario compiled with the suite's labels, the
// scenario's analysis for the sweep path (nil when the program is not
// deadlock-free, which core refuses to run), and its fault plan.
type fuzzMachine struct {
	p      *model.Program
	topo   topology.Topology
	labels []int
	m      *machine.Machine
	a      *core.Analysis
	faults *fault.Plan
}

func newFuzzMachine(t *testing.T, p *model.Program, topo topology.Topology, seed int64, faultClass int) *fuzzMachine {
	t.Helper()
	fm := &fuzzMachine{p: p, topo: topo}
	if lab, err := label.Assign(p, label.Options{}); err == nil {
		fm.labels = lab.Dense
	} else {
		fm.labels = label.Trivial(p).Dense
	}
	m, err := machine.Compile(p, topo, nil, fm.labels)
	if err != nil {
		t.Fatal(err)
	}
	fm.m = m
	if a, err := core.Analyze(p, topo, core.AnalyzeOptions{}); err == nil && a.DeadlockFree {
		fm.a = a
	}
	if faultClass != 0 && p.NumMessages() > 0 {
		fm.faults = gen.RandomFaults(seed, p.NumCells(), len(topo.Links()), gen.FaultOptions{SlowdownsOnly: faultClass == 1})
	}
	return fm
}

// policyKinds maps an equivConfigs row's policy to the kind a sweep
// names it by. The sweep span runs with seed 7, the seed freshPolicy
// builds the random policy with.
var policyKinds = map[string]core.PolicyKind{
	"compatible":       core.DynamicCompatible,
	"static":           core.StaticAssignment,
	"naive-fcfs":       core.NaiveFCFS,
	"naive-lifo":       core.NaiveLIFO,
	"naive-random":     core.NaiveRandom,
	"naive-label-desc": core.NaiveAdversarial,
}

// handedOver is a Machine.Run Result the sequence keeps, with the
// reference engine's Result for the same run.
type handedOver struct {
	desc      string
	got, want *machine.Result
}

// FuzzEquivalence replays short sequences of runs over two machine
// sizes — a generated scenario and the same seed's scenario on 32
// cells — through the machine's three ways in: Machine.Run, which
// borrows a pooled exec and hands its buffers to the Result; a batch
// Exec, which holds one exec for two runs and gives it back warm; and
// a sweep span, a core.Runner that also keeps its policies from run to
// run. Every exec comes from the process-wide pool, so each run finds
// whatever the runs before it left there. Every Result must equal the
// reference engine's for the same run; every Machine.Run Result must
// still equal it after the later runs, and must not keep a buffer more
// than twice its size (a received window keeps its message's word
// count). The bytes pick the scenario (seed, mutations, fault class,
// cyclic, and an empty program in place of the small one), the first
// equivConfigs row, and one run per byte of runs: the way in (b%3),
// the machine (b/3%2) and an offset to the row (b/6). A byte of 128 or
// more first changes that machine's fault plan in place (reshape), so
// the next run lowers new entries from a plan it has seen before —
// into tables, and past rendered descriptions, an exec may keep.
func FuzzEquivalence(f *testing.F) {
	sequence := []byte{0, 4, 2, 3, 1, 5, 6, 10}
	f.Add(int64(1), uint8(0), uint8(0), false, true, uint8(0), sequence)
	for _, ec := range corpusCases(f) {
		f.Add(ec.seed, uint8(ec.mutations), uint8(ec.faultClass), ec.cyclic, false, uint8(ec.seed), sequence)
	}
	// A batch Exec on the large machine, then a Machine.Run on the
	// small one: the exec the batch gave back still holds the large
	// machine's tables.
	f.Add(int64(3), uint8(0), uint8(2), false, false, uint8(0), []byte{4, 0, 0})
	// The same runs with the fault plans reshaped in place between
	// them: on the large machine under every way in, then on the small
	// one, whose plan starts empty.
	f.Add(int64(3), uint8(0), uint8(2), false, false, uint8(0), []byte{3, 131, 4, 133, 5, 128, 129, 0})
	f.Fuzz(func(t *testing.T, seed int64, mutations, faultClass uint8, cyclic, empty bool, row uint8, runs []byte) {
		if len(runs) > 8 {
			runs = runs[:8]
		}
		opts := gen.Options{Mutations: int(mutations % 8), Cyclic: cyclic}
		var small *fuzzMachine
		if empty {
			b := model.NewBuilder()
			b.AddCells("C", 2)
			p, err := b.Build()
			if err != nil {
				t.Fatal(err)
			}
			small = newFuzzMachine(t, p, topology.Linear(2), seed, 0)
		} else {
			sc, err := gen.Generate(seed, opts)
			if err != nil {
				t.Skip(err)
			}
			small = newFuzzMachine(t, sc.Program, sc.Topology, seed, int(faultClass%3))
		}
		opts.Cells = 32
		sc, err := gen.Generate(seed, opts)
		if err != nil {
			t.Skip(err)
		}
		large := newFuzzMachine(t, sc.Program, sc.Topology, seed, int(faultClass%3))
		sizes := [2]*fuzzMachine{small, large}
		var kept []handedOver
		for step, b := range runs {
			fm := sizes[b/3%2]
			cfgs := equivConfigs(fm.labels)
			i := (int(row) + int(b/6)) % len(cfgs)
			cfg, next := cfgs[i], cfgs[(i+1)%len(cfgs)]
			desc := fmt.Sprintf("step %d (machine %d, row %d)", step, b/3%2, i)
			if b >= 128 {
				fm.reshape(step)
				desc += " after a reshape"
			}
			switch b % 3 {
			case 0:
				got, err := fm.m.Run(fm.options(cfg))
				want := fm.check(t, desc+" Machine.Run", nil, nil, cfg, got, err)
				if want != nil {
					checkSized(t, desc, fm.p, got)
					kept = append(kept, handedOver{desc, got, want})
				}
			case 1:
				ex := fm.m.NewExec()
				for _, c := range []machine.ExecOptions{cfg, next} {
					got, err := ex.Run(fm.options(c))
					fm.check(t, desc+" batch Exec", nil, nil, c, got, err)
				}
				ex.Release()
			case 2:
				if fm.a == nil {
					continue
				}
				runner := core.NewRunner(fm.a)
				for _, c := range []machine.ExecOptions{cfg, next} {
					c = fm.options(c)
					c.Capacity = max(c.Capacity, 1) // core's default capacity
					got, err := runner.Execute(core.ExecOptions{
						Policy: policyKinds[c.Policy.Name()], Seed: 7, Force: true,
						QueuesPerLink: c.QueuesPerLink, Capacity: c.Capacity,
						ExtCapacity: c.ExtCapacity, ExtPenalty: c.ExtPenalty,
						MaxCycles: c.MaxCycles, RecordTimeline: c.RecordTimeline,
						Faults: c.Faults, LinkModel: c.LinkModel,
					})
					fm.check(t, desc+" sweep span", fm.a.Routes, fm.a.Labeling.Dense, c, got, err)
				}
				runner.Release()
			}
			for _, k := range kept {
				if !reflect.DeepEqual(k.got, k.want) {
					t.Fatalf("%s: the Machine.Run Result changed by step %d\ngot:  %+v\nwant: %+v", k.desc, step, k.got, k.want)
				}
			}
		}
	})
}

// reshape changes fm's fault plan in place, as a caller may between two
// runs: the *Plan and its backing arrays stay, every periodic factor
// and effective-from cycle moves, and on even steps the last cell fault
// is dropped, on odd ones a dropped one comes back. A machine without a
// plan gets a slowdowns-only one first.
func (fm *fuzzMachine) reshape(step int) {
	if fm.p.NumMessages() == 0 {
		return
	}
	p := fm.faults
	if p == nil {
		fm.faults = gen.RandomFaults(int64(step), fm.p.NumCells(), len(fm.topo.Links()), gen.FaultOptions{SlowdownsOnly: true})
		return
	}
	for i := range p.Cells {
		if c := &p.Cells[i]; !c.Dead {
			c.Factor = c.Factor%4 + 2
		}
		p.Cells[i].From = (p.Cells[i].From + step) % 7
	}
	for i := range p.Links {
		if l := &p.Links[i]; !l.Severed {
			l.Factor = l.Factor%4 + 2
		}
		p.Links[i].From = (p.Links[i].From + step) % 7
	}
	switch {
	case step%2 == 0 && len(p.Cells) > 0:
		p.Cells = p.Cells[:len(p.Cells)-1]
	case step%2 == 1 && len(p.Cells) < cap(p.Cells):
		p.Cells = p.Cells[:len(p.Cells)+1]
	}
}

// options gives a config row the machine's fault plan unless the row
// carries its own.
func (fm *fuzzMachine) options(cfg machine.ExecOptions) machine.ExecOptions {
	if cfg.Faults == nil {
		cfg.Faults = fm.faults
	}
	return cfg
}

// check compares one machine run with the reference engine's on the
// same inputs (the machine's own routes and labels when nil) and
// returns the reference Result, or nil when both refused the config
// with the same error.
func (fm *fuzzMachine) check(t *testing.T, desc string, routes [][]topology.Hop, labels []int, cfg machine.ExecOptions, got *machine.Result, gotErr error) *machine.Result {
	t.Helper()
	if labels == nil {
		labels = fm.labels
	}
	want, wantErr := Run(fm.p, fm.topo, routes, labels, freshPolicy(fm.options(cfg)))
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("%s: machine err=%v, reference err=%v", desc, gotErr, wantErr)
	}
	if gotErr != nil {
		return nil
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: results diverged\nreference: %+v\nmachine:   %+v\nprogram:\n%s", desc, want, got, fm.p)
	}
	return want
}

// checkSized requires a Machine.Run Result to be sized to its own run:
// every slice the exec could have grown at most twice its length, every
// received window capped at its message's word count. Timeline is left
// out: each run appends it from nil, so it is the run's own, and
// append's size classes may round it just past twice its length.
func checkSized(t *testing.T, desc string, p *model.Program, res *machine.Result) {
	t.Helper()
	for _, s := range []struct {
		name     string
		len, cap int
	}{
		{"Received", len(res.Received), cap(res.Received)},
		{"Blocked", len(res.Blocked), cap(res.Blocked)},
		{"Faults", len(res.Faults), cap(res.Faults)},
		{"Stats.BlockedCycles", len(res.Stats.BlockedCycles), cap(res.Stats.BlockedCycles)},
		{"Stats.Queues", len(res.Stats.Queues), cap(res.Stats.Queues)},
	} {
		if s.cap > 2*s.len {
			t.Errorf("%s: Machine.Run Result's %s has len %d cap %d", desc, s.name, s.len, s.cap)
		}
	}
	for id, w := range res.Received {
		if words := p.Message(model.MessageID(id)).Words; cap(w) > words {
			t.Errorf("%s: Machine.Run Result's Received[%d] has cap %d over %d words", desc, id, cap(w), words)
		}
	}
}
