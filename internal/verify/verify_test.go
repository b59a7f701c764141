package verify

import (
	"math/rand"
	"reflect"
	"testing"

	"systolic/internal/crossoff"
	"systolic/internal/gen"
	"systolic/internal/label"
	"systolic/internal/model"
	"systolic/internal/topology"
)

func TestSection6LabelsRandomPrograms(t *testing.T) {
	// The paper claims the §6 scheme produces a consistent labeling
	// for any deadlock-free program; validate over many random ones.
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cells, msgs := 2+rng.Intn(5), 1+rng.Intn(8)
		sc, err := gen.Generate(seed, gen.Options{
			Cells: cells, Messages: msgs, MaxWords: 3, Interleave: msgs,
			Cyclic: true, Topology: gen.TopoLinear,
		})
		if err != nil {
			t.Fatal(err)
		}
		p := sc.Program
		lab, err := label.Assign(p, label.Options{})
		if err != nil {
			t.Fatalf("seed %d: labeling failed: %v\n%s", seed, err, p)
		}
		if err := label.Check(p, lab.ByMessage); err != nil {
			t.Fatalf("seed %d: inconsistent labeling: %v\n%s", seed, err, p)
		}
	}
}

func TestSwapAdjacent(t *testing.T) {
	b := model.NewBuilder()
	c1 := b.AddCell("C1")
	c2 := b.AddCell("C2")
	a := b.DeclareMessage("A", c1, c2, 1)
	bb := b.DeclareMessage("B", c1, c2, 1)
	b.Write(c1, a).Write(c1, bb)
	b.Read(c2, a).Read(c2, bb)
	p := b.MustBuild()

	q, err := swapAdjacent(p, c1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if q.Code(c1)[0].Msg != bb || q.Code(c1)[1].Msg != a {
		t.Fatal("swap did not exchange ops")
	}
	if p.Code(c1)[0].Msg != a {
		t.Fatal("swap mutated the original")
	}
	if _, err := swapAdjacent(p, c1, 5); err == nil {
		t.Fatal("out-of-range swap accepted")
	}
}

func TestCheckPreconditionsFig8Shape(t *testing.T) {
	// A and B related (same label) and both crossing one link: the
	// report must demand 2 queues.
	b := model.NewBuilder()
	cs := b.AddCells("C", 3)
	a := b.DeclareMessage("A", cs[1], cs[2], 4)
	bb := b.DeclareMessage("B", cs[0], cs[2], 3)
	b.WriteN(cs[0], bb, 3)
	b.WriteN(cs[1], a, 4)
	b.Read(cs[2], a).Read(cs[2], bb).Read(cs[2], a).Read(cs[2], a)
	b.Read(cs[2], bb).Read(cs[2], bb).Read(cs[2], a)
	p := b.MustBuild()

	lab, err := label.Assign(p, label.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := CheckPreconditions(p, topology.Linear(3), lab.Dense, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxGroup != 2 {
		t.Fatalf("MaxGroup=%d, want 2", rep.MaxGroup)
	}
	if len(rep.Violations) == 0 {
		t.Fatal("no violation reported with 1 queue")
	}
	rep, err = CheckPreconditions(p, topology.Linear(3), lab.Dense, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) != 0 {
		t.Fatalf("violations with 2 queues: %v", rep.Violations)
	}
	_ = a
}

func TestSuggestFixesRepairsP2AndP3(t *testing.T) {
	// P2: both cells write before reading.
	b := model.NewBuilder()
	c1 := b.AddCell("C1")
	c2 := b.AddCell("C2")
	a := b.DeclareMessage("A", c1, c2, 1)
	bb := b.DeclareMessage("B", c2, c1, 1)
	b.Write(c1, a).Read(c1, bb)
	b.Write(c2, bb).Read(c2, a)
	p2 := b.MustBuild()

	fixes := SuggestFixes(p2, 0)
	if len(fixes) == 0 {
		t.Fatal("no fix found for P2")
	}
	for _, f := range fixes {
		q, err := swapAdjacent(p2, f.Cell, f.Index)
		if err != nil {
			t.Fatal(err)
		}
		if !crossoff.Classify(q, crossoff.Options{}) {
			t.Fatalf("suggested fix %v does not repair P2", f)
		}
		if DescribeFix(p2, f) == "" {
			t.Fatal("empty fix description")
		}
	}

	// P3: both cells read before writing; symmetric, also one swap.
	b = model.NewBuilder()
	c1 = b.AddCell("C1")
	c2 = b.AddCell("C2")
	a = b.DeclareMessage("A", c1, c2, 1)
	bb = b.DeclareMessage("B", c2, c1, 1)
	b.Read(c1, bb).Write(c1, a)
	b.Read(c2, a).Write(c2, bb)
	p3 := b.MustBuild()
	if len(SuggestFixes(p3, 0)) == 0 {
		t.Fatal("no fix found for P3")
	}
}

func TestSuggestFixesHonorsLimit(t *testing.T) {
	b := model.NewBuilder()
	c1 := b.AddCell("C1")
	c2 := b.AddCell("C2")
	a := b.DeclareMessage("A", c1, c2, 1)
	bb := b.DeclareMessage("B", c2, c1, 1)
	b.Write(c1, a).Read(c1, bb)
	b.Write(c2, bb).Read(c2, a)
	p := b.MustBuild()
	if got := SuggestFixes(p, 1); len(got) > 1 {
		t.Fatalf("limit ignored: %d fixes", len(got))
	}
}

func TestSuggestFixesEmptyOnDeadlockFree(t *testing.T) {
	// Fix search only reports swaps that *repair*; a deadlock-free
	// program trivially reports whatever swaps keep it free — callers
	// gate on classification first, but the function must not panic.
	sc, err := gen.Generate(3, gen.Options{
		Cells: 3, Messages: 3, MaxWords: 2, Interleave: 3,
		Cyclic: true, Topology: gen.TopoLinear,
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = SuggestFixes(sc.Program, 2)
}

// TestViolationsDeterministicOrder is the regression test for the
// sysvet detorder finding in CheckPreconditionsRoutes: Violations was
// built by ranging over the competing-messages map and the label
// groups map, so its order differed run to run even though the report
// escapes into core.Analysis and wire responses. Links and labels
// must now come out in ascending order on every call.
func TestViolationsDeterministicOrder(t *testing.T) {
	hop := func(l topology.LinkID) []topology.Hop {
		return []topology.Hop{{Link: l, From: 0, To: 1}}
	}
	// Links 0, 1, and 2 each carry two label groups of two messages;
	// with one queue per link that is six violations across three
	// links — plenty of map keys for a nondeterministic order to show.
	routes := [][]topology.Hop{
		hop(0), hop(0), hop(0), hop(0),
		hop(1), hop(1), hop(1), hop(1),
		hop(2), hop(2), hop(2), hop(2),
	}
	dense := []int{0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5}
	want := []string{
		"link 0: 2 competing messages share label 0 but only 1 queues",
		"link 0: 2 competing messages share label 1 but only 1 queues",
		"link 1: 2 competing messages share label 2 but only 1 queues",
		"link 1: 2 competing messages share label 3 but only 1 queues",
		"link 2: 2 competing messages share label 4 but only 1 queues",
		"link 2: 2 competing messages share label 5 but only 1 queues",
	}
	for i := 0; i < 100; i++ {
		rep := CheckPreconditionsRoutes(routes, dense, 1)
		if !reflect.DeepEqual(rep.Violations, want) {
			t.Fatalf("iteration %d: violations out of order:\ngot  %v\nwant %v", i, rep.Violations, want)
		}
		if rep.MaxGroup != 2 || rep.MaxCompeting != 4 {
			t.Fatalf("MaxGroup=%d MaxCompeting=%d, want 2 and 4", rep.MaxGroup, rep.MaxCompeting)
		}
	}
}
