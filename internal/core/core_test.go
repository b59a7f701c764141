package core

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"systolic/internal/crossoff"
	"systolic/internal/gen"
	"systolic/internal/label"
	"systolic/internal/machine"
	"systolic/internal/model"
	"systolic/internal/topology"
	"systolic/internal/workload"
)

func analyzeWorkload(t *testing.T, w *workload.Workload) *Analysis {
	t.Helper()
	a, err := Analyze(w.Program, w.Topology, AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestAnalyzeFig2(t *testing.T) {
	a := analyzeWorkload(t, workload.Fig2())
	if !a.DeadlockFree || !a.Strict {
		t.Fatal("Fig 2 not deadlock-free")
	}
	if a.MinQueuesDynamic < 1 || a.MinQueuesStatic < a.MinQueuesDynamic {
		t.Fatalf("queue requirements dyn=%d static=%d", a.MinQueuesDynamic, a.MinQueuesStatic)
	}
}

// TestAnalyzeSinglePass counts crossing-off passes through the picker:
// a pass over a program that crosses off completely picks once per
// pair. A strict analysis is one pass (verdict, blocked fronts and
// labeling all come from it); lookahead adds the strict classification
// it reports alongside, and nothing else.
func TestAnalyzeSinglePass(t *testing.T) {
	w := workload.Fig2()
	pairs := w.Program.TotalOps() / 2
	for _, tc := range []struct {
		name   string
		opts   AnalyzeOptions
		passes int
	}{
		{"strict", AnalyzeOptions{}, 1},
		{"lookahead", AnalyzeOptions{Lookahead: true, Capacity: 1}, 2},
	} {
		picks := 0
		tc.opts.Picker = func(candidates []crossoff.Pair) crossoff.Pair {
			picks++
			return crossoff.ByMessageID(candidates)
		}
		a, err := Analyze(w.Program, w.Topology, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !a.DeadlockFree || !a.Strict || len(a.Labeling.Dense) != w.Program.NumMessages() {
			t.Fatalf("%s: Fig 2 not approved and labeled: %+v", tc.name, a)
		}
		if picks != tc.passes*pairs {
			t.Errorf("%s: %d picks over %d pairs, want %d crossing-off pass(es)", tc.name, picks, pairs, tc.passes)
		}
	}
}

// TestAnalyzeChecksOnlyTheFallback pins both labeling paths. A greedy
// §6 labeling (Fig 2) reaches the Analysis with no warning and is
// consistent: the labeler checked it. A generated mesh program falls
// back to the order-based construction, whose labeling carries the
// note and is still consistent; and checkFallback still refuses such a
// labeling when its ranks decrease along a cell.
func TestAnalyzeChecksOnlyTheFallback(t *testing.T) {
	greedy := analyzeWorkload(t, workload.Fig2())
	if len(greedy.Labeling.Warnings) != 0 {
		t.Fatalf("Fig 2's labeling carries warnings %q", greedy.Labeling.Warnings)
	}
	if err := label.CheckDense(greedy.Program, greedy.Labeling.Dense); err != nil {
		t.Fatalf("greedy labeling: %v", err)
	}
	var fallback *Analysis
	for seed := int64(1); seed <= 8 && fallback == nil; seed++ {
		sc, err := gen.Generate(seed, gen.Options{Cells: 32, Messages: 64, MaxWords: 4, Interleave: 4, Cyclic: true, Topology: gen.TopoMesh})
		if err != nil {
			t.Fatal(err)
		}
		a, err := Analyze(sc.Program, sc.Topology, AnalyzeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if a.DeadlockFree && len(a.Labeling.Warnings) > 0 {
			fallback = a
		}
	}
	if fallback == nil {
		t.Fatal("no generated program fell back: the test checks nothing")
	}
	p, lab := fallback.Program, fallback.Labeling
	if err := label.CheckDense(p, lab.Dense); err != nil {
		t.Fatalf("fallback labeling: %v", err)
	}
	if err := checkFallback(p, lab); err != nil {
		t.Fatalf("checkFallback refused a consistent fallback labeling: %v", err)
	}
	// Reverse the ranks: some cell touching two messages of different
	// labels now sees them decrease.
	bad := lab
	bad.Dense = make([]int, len(lab.Dense))
	for i, r := range lab.Dense {
		bad.Dense[i] = -r
	}
	if err := checkFallback(p, bad); err == nil || !strings.Contains(err.Error(), "inconsistent") {
		t.Errorf("checkFallback on decreasing fallback ranks: %v", err)
	}
}

func TestAnalyzeDeadlockedProgramNotAnError(t *testing.T) {
	w := workload.Fig5P3()
	a, err := Analyze(w.Program, w.Topology, AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if a.DeadlockFree {
		t.Fatal("P3 classified deadlock-free")
	}
	if len(a.Blocked) == 0 {
		t.Fatal("no blocked diagnosis")
	}
	if _, err := Execute(a, ExecOptions{}); err == nil {
		t.Fatal("Execute accepted a deadlocked program")
	}
}

func TestAnalyzeLookaheadAdmitsP1(t *testing.T) {
	w := workload.Fig5P1()
	strict, err := Analyze(w.Program, w.Topology, AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if strict.DeadlockFree {
		t.Fatal("P1 strict-admitted")
	}
	la, err := Analyze(w.Program, w.Topology, AnalyzeOptions{Lookahead: true, Capacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !la.DeadlockFree || la.Strict {
		t.Fatalf("lookahead analysis wrong: free=%v strict=%v", la.DeadlockFree, la.Strict)
	}
	res, err := Execute(la, ExecOptions{QueuesPerLink: 2, Capacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("P1 run %s", res.Outcome())
	}
}

// TestAnalyzeMonotoneInCapacity: a lookahead analysis never rejects at
// a larger queue capacity what it admits at a smaller one. On a 3-cell
// array, A sends X and then Y to C, which reads Y first: crossing Y
// skips A's write of X, one skip against X's budget of capacity × 2
// hops. A budget product past MaxInt once wrapped negative and
// rejected the largest capacities.
func TestAnalyzeMonotoneInCapacity(t *testing.T) {
	b := model.NewBuilder()
	cells := b.AddCells("C", 3)
	x := b.DeclareMessage("X", cells[0], cells[2], 1)
	y := b.DeclareMessage("Y", cells[0], cells[2], 1)
	b.Write(cells[0], x).Write(cells[0], y)
	b.Read(cells[2], y).Read(cells[2], x)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	admitted := false
	for _, capacity := range []int{0, 1, 2, 1 << 40, math.MaxInt/2 + 1, math.MaxInt} {
		a, err := Analyze(p, topology.Linear(3), AnalyzeOptions{Lookahead: true, Capacity: capacity})
		if err != nil {
			t.Fatalf("capacity %d: %v", capacity, err)
		}
		if admitted && !a.DeadlockFree {
			t.Errorf("capacity %d rejects a program a smaller capacity admits: %s", capacity, crossoff.DescribeBlocked(p, a.Blocked))
		}
		admitted = admitted || a.DeadlockFree
	}
	if !admitted {
		t.Fatal("no capacity admits the program")
	}
}

func TestExecuteRefusesUnderProvisionedCompatible(t *testing.T) {
	a := analyzeWorkload(t, workload.Fig8())
	_, err := Execute(a, ExecOptions{QueuesPerLink: 1})
	if err == nil || !strings.Contains(err.Error(), "assumption (ii)") {
		t.Fatalf("Execute = %v, want precondition refusal", err)
	}
	// Force runs it anyway — and the stall is detected as deadlock.
	res, err := Execute(a, ExecOptions{QueuesPerLink: 1, Force: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deadlocked {
		t.Fatalf("forced under-provisioned run %s", res.Outcome())
	}
}

func TestExecuteDefaultsQueueCountFromAnalysis(t *testing.T) {
	a := analyzeWorkload(t, workload.Fig8())
	res, err := Execute(a, ExecOptions{}) // QueuesPerLink defaults to MinQueuesDynamic (2)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("defaulted run %s", res.Outcome())
	}
}

func TestExecuteStaticPolicy(t *testing.T) {
	a := analyzeWorkload(t, workload.Fig3())
	res, err := Execute(a, ExecOptions{Policy: StaticAssignment, Capacity: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("static run %s", res.Outcome())
	}
	// Static under-provisioned refuses too.
	if _, err := Execute(a, ExecOptions{Policy: StaticAssignment, QueuesPerLink: 1}); err == nil {
		t.Fatal("static accepted too few queues")
	}
}

func TestAllPolicyKindsRunFig2(t *testing.T) {
	w := workload.Fig2()
	a := analyzeWorkload(t, w)
	for _, kind := range []PolicyKind{
		DynamicCompatible, StaticAssignment, NaiveFCFS, NaiveLIFO, NaiveRandom, NaiveAdversarial,
	} {
		res, err := Execute(a, ExecOptions{
			Policy:        kind,
			QueuesPerLink: a.MinQueuesStatic, // plenty for everyone
			Capacity:      2,
			Logic:         w.Logic,
			Seed:          11,
			Force:         true,
		})
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if !res.Completed {
			t.Fatalf("%v: %s", kind, res.Outcome())
		}
		if err := w.CheckReceived(res.Received); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
	}
}

func TestPolicyKindStrings(t *testing.T) {
	want := map[PolicyKind]string{
		DynamicCompatible: "dynamic-compatible",
		StaticAssignment:  "static",
		NaiveFCFS:         "naive-fcfs",
		NaiveLIFO:         "naive-lifo",
		NaiveRandom:       "naive-random",
		NaiveAdversarial:  "naive-adversarial",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d → %q", int(k), k.String())
		}
	}
}

// generate draws a gen program on a linear array with every message in
// flight at once, as §3's construction allows; mutations > 0 swaps that
// many adjacent ops afterwards.
func generate(t *testing.T, seed int64, cells, msgs, maxWords, mutations int) *model.Program {
	t.Helper()
	sc, err := gen.Generate(seed, gen.Options{
		Cells: cells, Messages: msgs, MaxWords: maxWords, Interleave: msgs,
		Cyclic: true, Mutations: mutations, Topology: gen.TopoLinear,
	})
	if err != nil {
		t.Fatal(err)
	}
	return sc.Program
}

// TestTheorem1Property is the headline property test: for randomized
// deadlock-free programs on linear arrays, the full avoidance pipeline
// (crossing-off ✓, §6 labels ✓, compatible assignment with enough
// queues) always runs to completion. This is Theorem 1, exercised.
func TestTheorem1Property(t *testing.T) {
	seeds := 150
	if testing.Short() {
		seeds = 25
	}
	for seed := int64(0); seed < int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		cells := 2 + rng.Intn(5)
		p := generate(t, seed, cells, 1+rng.Intn(7), 4, 0)
		topo := topology.Linear(cells)
		a, err := Analyze(p, topo, AnalyzeOptions{})
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, p)
		}
		if !a.DeadlockFree {
			t.Fatalf("seed %d: generator produced a non-deadlock-free program", seed)
		}
		res, err := Execute(a, ExecOptions{Capacity: 1 + int(seed%3)})
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, p)
		}
		if !res.Completed {
			t.Fatalf("seed %d: Theorem 1 violated — %s\n%s\nblocked:\n%s",
				seed, res.Outcome(), p, machine.DescribeBlocked(p, res.Blocked))
		}
	}
}

// TestTheorem1OnRing exercises the property over a ring topology
// (multi-hop, shared links in both directions).
func TestTheorem1OnRing(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed + 1000))
		cells := 3 + rng.Intn(4)
		p := generate(t, seed+1000, cells, 1+rng.Intn(5), 3, 0)
		a, err := Analyze(p, topology.Ring(cells), AnalyzeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Execute(a, ExecOptions{Capacity: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatalf("seed %d: ring run %s\n%s", seed, res.Outcome(), p)
		}
	}
}

// TestNaiveSometimesDeadlocks documents the converse: naive assignment
// with scarce queues does deadlock on some generated programs — the
// avoidance machinery is not vacuous.
func TestNaiveSometimesDeadlocks(t *testing.T) {
	deadlocks := 0
	for seed := int64(0); seed < 300 && deadlocks == 0; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cells := 3 + rng.Intn(3)
		p := generate(t, seed, cells, 3+rng.Intn(5), 3, 0)
		a, err := Analyze(p, topology.Linear(cells), AnalyzeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Execute(a, ExecOptions{
			Policy: NaiveLIFO, QueuesPerLink: 1, Capacity: 1, Force: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Deadlocked {
			deadlocks++
		}
	}
	if deadlocks == 0 {
		t.Fatal("naive LIFO with 1 queue never deadlocked on 300 random programs")
	}
}

// TestCompatibleNeverReordersWords: completion is not enough — the
// receiver must see every message's words in order.
func TestCompatibleNeverReordersWords(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed + 77))
		cells := 3 + rng.Intn(3)
		p := generate(t, seed+77, cells, 4, 5, 0)
		a, err := Analyze(p, topology.Linear(cells), AnalyzeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Execute(a, ExecOptions{Capacity: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatalf("seed %d: %s", seed, res.Outcome())
		}
		for id := 0; id < p.NumMessages(); id++ {
			words := res.Received[id]
			if len(words) != p.Message(model.MessageID(id)).Words {
				t.Fatalf("seed %d: message %d received %d words", seed, id, len(words))
			}
			for i, w := range words {
				if w != machine.Word(float64(id)*1e6+float64(i)) {
					t.Fatalf("seed %d: message %d word %d = %v (reordered)", seed, id, i, w)
				}
			}
		}
	}
}
