package core

import (
	"fmt"
	"math/rand"
	"testing"

	"systolic/internal/machine"
	"systolic/internal/topology"
)

// TestTheorem1AcrossTopologies runs the full avoidance pipeline over
// every topology family the package provides, with random
// deadlock-free programs whose message endpoints are arbitrary cell
// pairs (multi-hop routes, heavy link sharing).
func TestTheorem1AcrossTopologies(t *testing.T) {
	families := []struct {
		name  string
		cells int
		topo  topology.Topology
	}{
		{"linear", 6, topology.Linear(6)},
		{"ring", 6, topology.Ring(6)},
		{"mesh", 6, topology.Mesh2D(2, 3)},
		{"torus", 6, topology.Torus2D(2, 3)},
		{"hypercube", 8, topology.Hypercube(3)},
		{"star", 6, topology.Star(6)},
	}
	for _, fam := range families {
		fam := fam
		t.Run(fam.name, func(t *testing.T) {
			for seed := int64(0); seed < 40; seed++ {
				rng := rand.New(rand.NewSource(seed*31 + 7))
				p := generate(t, seed*31+7, fam.cells, 2+rng.Intn(5), 3, 0)
				a, err := Analyze(p, fam.topo, AnalyzeOptions{})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				res, err := Execute(a, ExecOptions{Capacity: 1 + int(seed%2)})
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if !res.Completed {
					t.Fatalf("seed %d on %s: %s\n%s\n%s",
						seed, fam.topo.Name(), res.Outcome(), p,
						machine.DescribeBlocked(p, res.Blocked))
				}
			}
		})
	}
}

// TestSimulatorIsDeterministic: identical configurations must yield
// identical outcomes, cycle counts and received words — the foundation
// of the exact deadlock detection argument.
func TestSimulatorIsDeterministic(t *testing.T) {
	p := generate(t, 99, 5, 6, 4, 0)
	topo := topology.Linear(5)
	run := func() *machine.Result {
		a, err := Analyze(p, topo, AnalyzeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Execute(a, ExecOptions{Capacity: 2, RecordTimeline: true})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r2 := run(), run()
	if r1.Outcome() != r2.Outcome() || r1.Cycles != r2.Cycles {
		t.Fatalf("nondeterministic: %s/%d vs %s/%d", r1.Outcome(), r1.Cycles, r2.Outcome(), r2.Cycles)
	}
	if fmt.Sprint(r1.Received) != fmt.Sprint(r2.Received) {
		t.Fatal("received words differ between identical runs")
	}
	if len(r1.Timeline) != len(r2.Timeline) {
		t.Fatal("timelines differ between identical runs")
	}
	for i := range r1.Timeline {
		if r1.Timeline[i] != r2.Timeline[i] {
			t.Fatalf("timeline event %d differs", i)
		}
	}
}
