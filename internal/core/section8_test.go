package core

import (
	"math/rand"
	"slices"
	"testing"

	"systolic/internal/assign"
	"systolic/internal/crossoff"
	"systolic/internal/gen"
	"systolic/internal/label"
	"systolic/internal/machine"
	"systolic/internal/model"
	"systolic/internal/topology"
	"systolic/internal/verify"
)

// TestSection8ClassifierMatchesSimulator validates the §8 story
// end-to-end: for single-hop programs under static assignment (one
// private queue per message, so assignment plays no role), the
// lookahead classifier with skip budget c must agree exactly with the
// simulator running capacity-c queues — admitted programs complete,
// rejected programs deadlock. The execution of a program over bounded
// private FIFOs is monotone, so the verdict is schedule-independent
// and the equivalence is exact.
func TestSection8ClassifierMatchesSimulator(t *testing.T) {
	agreeBoth := 0
	for seed := int64(0); seed < 250; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Mutated programs span the whole spectrum: strictly fine,
		// buffering-fixable, and truly deadlocked.
		p, topo := section8Program(t, rng, seed)
		capacity := 1 + rng.Intn(3)
		admitted := crossoff.Classify(p, crossoff.Options{
			Lookahead: true,
			Budget:    crossoff.UniformBudget(capacity),
		})
		m, err := machine.Compile(p, topo, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(machine.ExecOptions{
			QueuesPerLink: p.NumMessages(), // private queue per message
			Capacity:      capacity,
			Policy:        assign.Static(),
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if admitted && !res.Completed {
			t.Fatalf("seed %d: classifier admitted (budget %d) but run %s\n%s",
				seed, capacity, res.Outcome(), p)
		}
		if !admitted && !res.Deadlocked {
			t.Fatalf("seed %d: classifier rejected (budget %d) but run %s\n%s",
				seed, capacity, res.Outcome(), p)
		}
		if !admitted {
			agreeBoth++
		}
	}
	if agreeBoth == 0 {
		t.Fatal("mutation never produced a rejected program; test is vacuous")
	}
}

// section8Program draws the §8 recipe from rng: a small gen program
// with a few adjacent-op swaps, on the complete graph over its cells so
// that every route is one hop and a §8 skip budget equals the queue
// capacity.
func section8Program(t *testing.T, rng *rand.Rand, seed int64) (*model.Program, topology.Topology) {
	t.Helper()
	cells, msgs := 2+rng.Intn(3), 2+rng.Intn(4)
	p := generate(t, seed, cells, msgs, 3, 1+rng.Intn(6))
	var edges [][2]model.CellID
	for a := 0; a < cells; a++ {
		for b := a + 1; b < cells; b++ {
			edges = append(edges, [2]model.CellID{model.CellID(a), model.CellID(b)})
		}
	}
	return p, topology.Graph(cells, edges)
}

// TestSection8ModifiedLabelingRunsLookaheadPrograms: programs admitted
// only under lookahead run to completion under the full pipeline with
// the §8.2 modified labeling and capacity matching the budget.
func TestSection8ModifiedLabelingRunsLookaheadPrograms(t *testing.T) {
	checked := 0
	for seed := int64(0); seed < 400 && checked < 30; seed++ {
		rng := rand.New(rand.NewSource(seed + 5000))
		p, topo := section8Program(t, rng, seed)
		const capacity = 2
		strict := crossoff.Classify(p, crossoff.Options{})
		admitted := crossoff.Classify(p, crossoff.Options{
			Lookahead: true, Budget: crossoff.UniformBudget(capacity),
		})
		if strict || !admitted {
			continue // want lookahead-only programs
		}
		checked++
		lab, err := label.Assign(p, label.Options{
			Lookahead: true, Budget: crossoff.UniformBudget(capacity),
		})
		if err != nil {
			t.Fatalf("seed %d: labeling: %v\n%s", seed, err, p)
		}
		rep, err := verify.CheckPreconditions(p, topo, lab.Dense, 1<<30)
		if err != nil {
			t.Fatal(err)
		}
		m, err := machine.Compile(p, topo, nil, lab.Dense)
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.Run(machine.ExecOptions{
			QueuesPerLink: rep.MaxGroup,
			Capacity:      capacity,
			Policy:        assign.Compatible(),
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatalf("seed %d: lookahead-admitted program %s under modified labeling\n%s\n%s",
				seed, res.Outcome(), p, machine.DescribeBlocked(p, res.Blocked))
		}
	}
	if checked == 0 {
		t.Fatal("never found a lookahead-only program; test is vacuous")
	}
	t.Logf("validated %d lookahead-only programs", checked)
}

// TestLookaheadRelabelsStrictCompletePrograms settles whether one
// strict analysis can stand in for a case's lookahead columns (ROADMAP
// item 6(b)): it cannot. The generated program below is deadlock-free
// under the strict procedure, so no lookahead run is ever stuck on it,
// and still every lookahead budget labels it differently — lookahead
// widens the set of executable pairs, the picker takes another order,
// and rule 1d merges the labels of skipped messages — so the two
// analyses compile to different machines. It is the common case, not a
// corner: over gen seeds 1–3000 with one mutation, 3 852 of the 7 641
// strict-complete (program, budget ∈ {1,2,4}) pairs differ like this.
func TestLookaheadRelabelsStrictCompletePrograms(t *testing.T) {
	sc, err := gen.Generate(1, gen.Options{Mutations: 1})
	if err != nil {
		t.Fatal(err)
	}
	strict, err := Analyze(sc.Program, sc.Topology, AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{7, 1, 1, 3, 7, 7, 5, 2, 6, 4, 5}; !strict.DeadlockFree || !slices.Equal(strict.Labeling.Dense, want) {
		t.Fatalf("strict analysis: deadlock-free %v, labels %v, want %v", strict.DeadlockFree, strict.Labeling.Dense, want)
	}
	for _, k := range []int{1, 2, 4} {
		for name, opts := range map[string]AnalyzeOptions{
			"capacity":       {Lookahead: true, Capacity: k},
			"uniform budget": {Lookahead: true, BudgetOverride: crossoff.UniformBudget(k)},
		} {
			la, err := Analyze(sc.Program, sc.Topology, opts)
			if err != nil {
				t.Fatal(err)
			}
			if want := []int{4, 1, 1, 3, 4, 4, 4, 2, 4, 4, 4}; !la.DeadlockFree || !la.Strict || !slices.Equal(la.Labeling.Dense, want) {
				t.Errorf("lookahead %d (%s): deadlock-free %v, strict %v, labels %v, want %v", k, name, la.DeadlockFree, la.Strict, la.Labeling.Dense, want)
			}
			if strict.SameMachine(la) {
				t.Errorf("lookahead %d (%s): same machine as the strict analysis", k, name)
			}
		}
	}
}
