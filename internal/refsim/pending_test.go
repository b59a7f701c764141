package refsim

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"systolic/internal/assign"
	"systolic/internal/gen"
	"systolic/internal/label"
	"systolic/internal/machine"
	"systolic/internal/model"
	"systolic/internal/topology"
	"systolic/internal/workload"
)

// grantRecorder wraps a policy and records what the engine shows it:
// every (pool, pending) it is handed and, from its own grant history,
// whether a pending list ever names a message the pool already serves.
type grantRecorder struct {
	assign.Policy
	seen    map[topology.LinkID][][]model.MessageID
	granted map[[2]int]bool
	stale   []string
}

func newGrantRecorder(p assign.Policy) *grantRecorder {
	return &grantRecorder{Policy: p, seen: map[topology.LinkID][][]model.MessageID{}, granted: map[[2]int]bool{}}
}

func (r *grantRecorder) Grant(now int, link topology.LinkID, free int, pending []model.MessageID) []model.MessageID {
	for _, m := range pending {
		if r.granted[[2]int{int(link), int(m)}] && len(r.stale) < 5 {
			r.stale = append(r.stale, fmt.Sprintf("cycle %d pool %d: pending names message %d, granted there earlier", now, link, m))
		}
	}
	// The machine invokes Grant only when a pool's state changed, the
	// reference every cycle: what both must agree on is the sequence of
	// distinct pending lists each pool goes through.
	if h := r.seen[link]; len(h) == 0 || !slices.Equal(h[len(h)-1], pending) {
		r.seen[link] = append(h, append([]model.MessageID{}, pending...))
	}
	out := r.Policy.Grant(now, link, free, pending)
	for i, m := range out {
		if i == free {
			break
		}
		r.granted[[2]int{int(link), int(m)}] = true
	}
	return out
}

// TestPendingIsOutstandingRequests holds both engines to the
// assign.Policy contract under the two reserving policies: pending
// lists only requests not yet granted, and the machine and the
// reference show a policy the same lists in the same order. Reserving
// policies bind hops ahead of the header, so every later arrival is a
// request for a hop already granted — the case the rule is about.
func TestPendingIsOutstandingRequests(t *testing.T) {
	type scenario struct {
		name string
		p    *model.Program
		topo topology.Topology
	}
	fft, err := workload.FFT(workload.FFTOptions{LogN: 6})
	if err != nil {
		t.Fatal(err)
	}
	scs := []scenario{{fft.Name, fft.Program, fft.Topology}}
	for seed := int64(1); seed <= 3; seed++ {
		sc, err := gen.Generate(seed, gen.Options{Cells: 9, Messages: 24, MaxWords: 3, Interleave: 4, Topology: gen.TopoMesh})
		if err != nil {
			t.Fatal(err)
		}
		scs = append(scs, scenario{sc.Name, sc.Program, sc.Topology})
	}
	for _, sc := range scs {
		lab, err := label.Assign(sc.p, label.Options{})
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		routes, err := topology.Routes(sc.p, sc.topo)
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		// Static needs a queue per competing message; Compatible gets the
		// same pool so that it reserves as far ahead as it can.
		crossing := make([]int, len(sc.topo.Links()))
		queues, multiHop := 1, false
		for _, rt := range routes {
			multiHop = multiHop || len(rt) > 1
			for _, h := range rt {
				crossing[h.Link]++
				queues = max(queues, crossing[h.Link])
			}
		}
		if !multiHop {
			t.Fatalf("%s: no multi-hop route, nothing arrives after a grant", sc.name)
		}
		for _, mk := range []func() assign.Policy{assign.Compatible, assign.Static} {
			opts := machine.ExecOptions{QueuesPerLink: queues, Capacity: 2}
			run := func(engine string, f func(*model.Program, topology.Topology, [][]topology.Hop, []int, machine.ExecOptions) (*machine.Result, error)) *grantRecorder {
				rec := newGrantRecorder(mk())
				opts.Policy = rec
				res, err := f(sc.p, sc.topo, routes, lab.Dense, opts)
				if err != nil {
					t.Fatalf("%s %s %s: %v", sc.name, rec.Name(), engine, err)
				}
				if !res.Completed {
					t.Fatalf("%s %s %s: %s", sc.name, rec.Name(), engine, res.Outcome())
				}
				for _, s := range rec.stale {
					t.Errorf("%s %s %s: %s", sc.name, rec.Name(), engine, s)
				}
				return rec
			}
			ref := run("reference", Run)
			mach := run("machine", machineRun)
			if !reflect.DeepEqual(ref.seen, mach.seen) {
				t.Errorf("%s %s: the engines showed the policy different pending sequences", sc.name, ref.Name())
			}
		}
	}
}
