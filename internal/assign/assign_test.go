package assign

import (
	"strings"
	"testing"

	"systolic/internal/model"
)

// ctx builds a small Context: 3 messages over one link, labels 1, 1, 2.
func ctx(queues int, labels []int) *Context {
	return &Context{
		CompetingByPool: [][]model.MessageID{{0, 1, 2}},
		Labels:          labels,
		QueuesPerLink:   queues,
	}
}

func TestCompatibleRequiresLabels(t *testing.T) {
	p := Compatible()
	if err := p.Setup(&Context{QueuesPerLink: 1}); err == nil {
		t.Fatal("compatible accepted nil labels")
	}
}

func TestCompatibleGroupTooLargeStalls(t *testing.T) {
	// Assumption (ii) violated: the size-2 label group never fits the
	// single queue, so the policy stalls (grants nothing, ever) and
	// the simulator will report the run as deadlocked.
	p := Compatible()
	if err := p.Setup(ctx(1, []int{1, 1, 2})); err != nil {
		t.Fatal(err)
	}
	for cycle := 0; cycle < 5; cycle++ {
		if g := p.Grant(cycle, 0, 1, []model.MessageID{0, 1, 2}); len(g) != 0 {
			t.Fatalf("cycle %d: granted %v despite oversized group", cycle, g)
		}
	}
}

func TestCompatibleGrantsGroupsInLabelOrder(t *testing.T) {
	p := Compatible()
	if err := p.Setup(ctx(2, []int{1, 1, 2})); err != nil {
		t.Fatal(err)
	}
	// First cycle, 2 free: the label-1 group {0,1} exactly fits; the
	// label-2 message must wait even though a request is pending.
	grants := p.Grant(0, 0, 2, []model.MessageID{2})
	if len(grants) != 2 || grants[0] != 0 || grants[1] != 1 {
		t.Fatalf("grants=%v, want [0 1]", grants)
	}
	// No free queues: nothing.
	if g := p.Grant(1, 0, 0, nil); len(g) != 0 {
		t.Fatalf("granted %v with no free queues", g)
	}
	// One frees up: label-2 message goes.
	grants = p.Grant(2, 0, 1, nil)
	if len(grants) != 1 || grants[0] != 2 {
		t.Fatalf("grants=%v, want [2]", grants)
	}
	// Exhausted.
	if g := p.Grant(3, 0, 2, nil); len(g) != 0 {
		t.Fatalf("granted %v after exhaustion", g)
	}
}

func TestCompatibleSimultaneousRuleBlocksPartialGroup(t *testing.T) {
	p := Compatible()
	if err := p.Setup(ctx(2, []int{1, 1, 2})); err != nil {
		t.Fatal(err)
	}
	// Only 1 free: the size-2 group must NOT be split.
	if g := p.Grant(0, 0, 1, nil); len(g) != 0 {
		t.Fatalf("simultaneous rule violated: %v", g)
	}
}

func TestCompatibleMultipleGroupsAtOnce(t *testing.T) {
	p := Compatible()
	if err := p.Setup(ctx(3, []int{1, 1, 2})); err != nil {
		t.Fatal(err)
	}
	// 3 free: both groups fit in one cycle.
	g := p.Grant(0, 0, 3, nil)
	if len(g) != 3 {
		t.Fatalf("grants=%v, want all three", g)
	}
}

func TestStaticRejectsOverCommit(t *testing.T) {
	p := Static()
	err := p.Setup(ctx(2, nil))
	if err == nil || !strings.Contains(err.Error(), "static") {
		t.Fatalf("Setup = %v", err)
	}
}

func TestStaticGrantsEverythingOnce(t *testing.T) {
	p := Static()
	if err := p.Setup(ctx(3, nil)); err != nil {
		t.Fatal(err)
	}
	g := p.Grant(0, 0, 3, nil)
	if len(g) != 3 {
		t.Fatalf("grants=%v", g)
	}
	if g2 := p.Grant(1, 0, 3, nil); len(g2) != 0 {
		t.Fatalf("static granted twice: %v", g2)
	}
}

func TestNaiveFCFSOrder(t *testing.T) {
	p := Naive(FCFS, 0)
	if err := p.Setup(&Context{}); err != nil {
		t.Fatal(err)
	}
	g := p.Grant(0, 0, 2, []model.MessageID{5, 3, 9})
	if len(g) != 2 || g[0] != 5 || g[1] != 3 {
		t.Fatalf("FCFS grants=%v", g)
	}
}

func TestNaiveLIFOOrder(t *testing.T) {
	p := Naive(LIFO, 0)
	if err := p.Setup(&Context{}); err != nil {
		t.Fatal(err)
	}
	g := p.Grant(0, 0, 1, []model.MessageID{5, 3, 9})
	if len(g) != 1 || g[0] != 9 {
		t.Fatalf("LIFO grants=%v", g)
	}
}

func TestNaiveLabelDescending(t *testing.T) {
	p := Naive(LabelDescending, 0)
	if err := p.Setup(&Context{Labels: []int{1, 3, 2}}); err != nil {
		t.Fatal(err)
	}
	g := p.Grant(0, 0, 3, []model.MessageID{0, 1, 2})
	if g[0] != 1 || g[1] != 2 || g[2] != 0 {
		t.Fatalf("label-desc grants=%v", g)
	}
}

func TestNaiveLabelDescendingNeedsLabels(t *testing.T) {
	p := Naive(LabelDescending, 0)
	if err := p.Setup(&Context{}); err == nil {
		t.Fatal("label-desc accepted nil labels")
	}
}

func TestNaiveRandomDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) []model.MessageID {
		p := Naive(Random, seed)
		if err := p.Setup(&Context{}); err != nil {
			t.Fatal(err)
		}
		return p.Grant(0, 0, 3, []model.MessageID{0, 1, 2, 3, 4})
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed, different grant order")
		}
	}
}

func TestNaiveEmptyPending(t *testing.T) {
	p := Naive(FCFS, 0)
	if err := p.Setup(&Context{}); err != nil {
		t.Fatal(err)
	}
	if g := p.Grant(0, 0, 3, nil); len(g) != 0 {
		t.Fatalf("granted %v from empty pending", g)
	}
	if g := p.Grant(0, 0, 0, []model.MessageID{1}); len(g) != 0 {
		t.Fatalf("granted %v with zero free", g)
	}
}

func TestArbiterStrings(t *testing.T) {
	for arb, want := range map[Arbiter]string{
		FCFS: "fcfs", LIFO: "lifo", Random: "random", LabelDescending: "label-desc",
	} {
		if arb.String() != want {
			t.Errorf("%v", arb)
		}
	}
	if Naive(FCFS, 0).Name() != "naive-fcfs" {
		t.Error("naive name wrong")
	}
	if Compatible().Name() != "compatible" || Static().Name() != "static" {
		t.Error("policy names wrong")
	}
}
