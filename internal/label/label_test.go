package label

import (
	"fmt"
	"strings"
	"testing"

	"systolic/internal/model"
	"systolic/internal/rational"
)

type msgSpec struct {
	name  string
	s, r  int
	words int
}

func build(t testing.TB, cells int, msgs []msgSpec, code [][]string) *model.Program {
	t.Helper()
	b := model.NewBuilder()
	ids := b.AddCells("C", cells)
	byName := map[string]model.MessageID{}
	for _, m := range msgs {
		byName[m.name] = b.DeclareMessage(m.name, ids[m.s], ids[m.r], m.words)
	}
	for c, ops := range code {
		for _, op := range ops {
			if op[0] == 'W' {
				b.Write(ids[c], byName[op[2:]])
			} else {
				b.Read(ids[c], byName[op[2:]])
			}
		}
	}
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// fig7 is the §4/§6 example: A: C2→C3 (4), B: C3→C4 (3), C: C1→C4 (3).
func fig7(t testing.TB) *model.Program {
	return build(t, 4,
		[]msgSpec{{"A", 1, 2, 4}, {"B", 2, 3, 3}, {"C", 0, 3, 3}},
		[][]string{
			{"W:C", "W:C", "W:C"},
			{"W:A", "W:A", "W:A", "W:A"},
			{"R:A", "R:A", "R:A", "R:A", "W:B", "W:B", "W:B"},
			{"R:C", "R:C", "R:C", "R:B", "R:B", "R:B"},
		})
}

func TestFig7LabelsMatchPaper(t *testing.T) {
	p := fig7(t)
	lab, err := Assign(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// §6: "messages A, B, and C will receive labels 1, 3, and 2".
	want := map[string]int{"A": 1, "B": 3, "C": 2}
	for name, dense := range want {
		m, _ := p.MessageByName(name)
		if lab.Dense[m.ID] != dense {
			t.Errorf("label(%s)=%d, want %d", name, lab.Dense[m.ID], dense)
		}
	}
	if err := Check(p, lab.ByMessage); err != nil {
		t.Fatal(err)
	}
}

func TestRelatedInterleavedReads(t *testing.T) {
	// Fig 8's C3 reads A and B interleaved: related.
	p := build(t, 3,
		[]msgSpec{{"A", 1, 2, 4}, {"B", 0, 2, 3}},
		[][]string{
			{"W:B", "W:B", "W:B"},
			{"W:A", "W:A", "W:A", "W:A"},
			{"R:A", "R:B", "R:A", "R:A", "R:B", "R:B", "R:A"},
		})
	uf := Related(p)
	if !uf.Same(0, 1) {
		t.Fatal("interleaved reads not related")
	}
	lab, err := Assign(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if lab.Dense[0] != lab.Dense[1] {
		t.Fatalf("related messages got labels %d and %d", lab.Dense[0], lab.Dense[1])
	}
}

func TestRelatedInterleavedWrites(t *testing.T) {
	// Fig 9's C1 writes A and B interleaved: related.
	p := build(t, 3,
		[]msgSpec{{"A", 0, 1, 4}, {"B", 0, 2, 3}},
		[][]string{
			{"W:A", "W:B", "W:A", "W:A", "W:B", "W:B", "W:A"},
			{"R:A", "R:A", "R:A", "R:A"},
			{"R:B", "R:B", "R:B"},
		})
	if !Related(p).Same(0, 1) {
		t.Fatal("interleaved writes not related")
	}
}

func TestNotRelatedSequential(t *testing.T) {
	// Sequential use (all of A, then all of B) is not interleaving.
	p := build(t, 3,
		[]msgSpec{{"A", 1, 2, 2}, {"B", 0, 2, 2}},
		[][]string{
			{"W:B", "W:B"},
			{"W:A", "W:A"},
			{"R:A", "R:A", "R:B", "R:B"},
		})
	if Related(p).Same(0, 1) {
		t.Fatal("sequential messages marked related")
	}
}

func TestRelatedTransitive(t *testing.T) {
	// A between two Bs at one cell; B between two Cs at another ⇒
	// A related C transitively.
	p := build(t, 4,
		[]msgSpec{{"A", 0, 3, 1}, {"B", 1, 3, 2}, {"C", 2, 3, 2}},
		[][]string{
			{"W:A"},
			{"W:B", "W:B"},
			{"W:C", "W:C"},
			// Reads at C4: B A B (A between Bs), C B' … — build an
			// interleaving where B sits between the two Cs.
			{"R:C", "R:B", "R:A", "R:B", "R:C"},
		})
	uf := Related(p)
	if !uf.Same(0, 1) || !uf.Same(1, 2) || !uf.Same(0, 2) {
		t.Fatalf("transitivity failed: classes %v", uf.Classes())
	}
}

func TestTrivialLabeling(t *testing.T) {
	p := fig7(t)
	lab := Trivial(p)
	for i := range lab.Dense {
		if lab.Dense[i] != 1 || !lab.ByMessage[i].Equal(rational.FromInt(1)) {
			t.Fatal("trivial labeling not all ones")
		}
	}
	if err := Check(p, lab.ByMessage); err != nil {
		t.Fatalf("trivial labeling not consistent: %v", err)
	}
}

func TestCheckDetectsDecrease(t *testing.T) {
	p := fig7(t)
	labels := make([]rational.R, p.NumMessages())
	// Deliberately inconsistent: C4 reads C (give it 5) before B (1).
	for _, m := range p.Messages() {
		switch m.Name {
		case "A":
			labels[m.ID] = rational.FromInt(1)
		case "B":
			labels[m.ID] = rational.FromInt(1)
		case "C":
			labels[m.ID] = rational.FromInt(5)
		}
	}
	err := Check(p, labels)
	if err == nil || !strings.Contains(err.Error(), "decrease") {
		t.Fatalf("Check = %v, want decrease error", err)
	}
}

func TestCheckWrongLength(t *testing.T) {
	p := fig7(t)
	if err := Check(p, nil); err == nil {
		t.Fatal("Check accepted wrong-length labels")
	}
}

func TestCheckDense(t *testing.T) {
	p := fig7(t)
	lab, err := Assign(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckDense(p, lab.Dense); err != nil {
		t.Fatalf("dense labels inconsistent: %v", err)
	}
}

// TestCheckDenseMatchesCheck: dense ranks keep the order and ties of
// the labels they come from, so CheckDense must judge them as Check
// judges the labels, with the same error text.
func TestCheckDenseMatchesCheck(t *testing.T) {
	p := fig7(t)
	for _, labels := range [][]int{{1, 3, 2}, {1, 1, 5}, {2, 1, 1}, {1, 2}} {
		exact := make([]rational.R, len(labels))
		for i, l := range labels {
			exact[i] = rational.FromInt(int64(l))
		}
		want, got := fmt.Sprint(Check(p, exact)), fmt.Sprint(CheckDense(p, labels))
		if got != want {
			t.Errorf("labels %v: CheckDense says %q, Check %q", labels, got, want)
		}
	}
}

func TestAssignRejectsDeadlockedProgram(t *testing.T) {
	p := build(t, 2,
		[]msgSpec{{"A", 0, 1, 1}, {"B", 1, 0, 1}},
		[][]string{{"R:B", "W:A"}, {"R:A", "W:B"}})
	if _, err := Assign(p, Options{}); err == nil {
		t.Fatal("Assign accepted a deadlocked program")
	}
}

func TestAssignLookaheadLabelsSkipped(t *testing.T) {
	// P1 under lookahead: rule 1d gives B's label to the skipped A.
	p := build(t, 2,
		[]msgSpec{{"A", 0, 1, 4}, {"B", 0, 1, 2}},
		[][]string{
			{"W:A", "W:A", "W:B", "W:A", "W:B", "W:A"},
			{"R:B", "R:A", "R:B", "R:A", "R:A", "R:A"},
		})
	lab, err := Assign(p, Options{Lookahead: true, Budget: func(model.MessageID) int { return 2 }})
	if err != nil {
		t.Fatal(err)
	}
	if lab.Dense[0] != lab.Dense[1] {
		t.Fatalf("skipped message label %d ≠ pair label %d (rule 1d)", lab.Dense[0], lab.Dense[1])
	}
	if err := Check(p, lab.ByMessage); err != nil {
		t.Fatal(err)
	}
}

func TestDensifyTiesAndOrder(t *testing.T) {
	labels := []rational.R{
		rational.FromInt(3).Div(rational.FromInt(2)), // 1.5
		rational.FromInt(1),
		rational.FromInt(3).Div(rational.FromInt(2)), // tie with first
		rational.FromInt(4),
	}
	dense := densify(labels)
	want := []int{2, 1, 2, 3}
	for i := range want {
		if dense[i] != want[i] {
			t.Fatalf("densify = %v, want %v", dense, want)
		}
	}
}

func TestStep1aAssignsIncreasingLabels(t *testing.T) {
	// Three disjoint pipelines crossed in id order: labels 1, 2, 3
	// via repeated step 1a.
	p := build(t, 6,
		[]msgSpec{{"A", 0, 1, 1}, {"B", 2, 3, 1}, {"C", 4, 5, 1}},
		[][]string{{"W:A"}, {"R:A"}, {"W:B"}, {"R:B"}, {"W:C"}, {"R:C"}})
	lab, err := Assign(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Disjoint pipelines: any consistent labeling works; the scheme's
	// 1a gives strictly increasing integers in cross order.
	if !(lab.Dense[0] == 1 && lab.Dense[1] == 2 && lab.Dense[2] == 3) {
		t.Fatalf("dense labels %v, want [1 2 3]", lab.Dense)
	}
	for i := range lab.ByMessage {
		if !lab.ByMessage[i].IsInt() {
			t.Fatalf("step 1a produced non-integer label %v", lab.ByMessage[i])
		}
	}
}

func TestStep1bProducesFractionWhenWindowIsTight(t *testing.T) {
	// Force step 1b: a cell still to read an already-labeled message
	// with a small label, after having touched another.
	// C1 sends A then B to C2; C3 sends D to C2 read between them; D's
	// pair becomes executable only after A crosses, and C2 will still
	// read B … arrange labels so D must fit strictly between.
	p := build(t, 3,
		[]msgSpec{{"A", 0, 1, 1}, {"B", 0, 1, 1}, {"D", 2, 1, 1}},
		[][]string{
			{"W:A", "W:B"},
			{"R:A", "R:D", "R:B"},
			{"W:D"},
		})
	lab, err := Assign(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := p.MessageByName("A")
	b, _ := p.MessageByName("B")
	d, _ := p.MessageByName("D")
	if !(lab.ByMessage[a.ID].Less(lab.ByMessage[d.ID]) && lab.ByMessage[d.ID].Less(lab.ByMessage[b.ID])) {
		t.Fatalf("labels A=%v D=%v B=%v, want A<D<B",
			lab.ByMessage[a.ID], lab.ByMessage[d.ID], lab.ByMessage[b.ID])
	}
	if err := Check(p, lab.ByMessage); err != nil {
		t.Fatal(err)
	}
}

func TestUnionFind(t *testing.T) {
	uf := newUnionFind(5)
	uf.Union(0, 1)
	uf.Union(3, 4)
	if !uf.Same(0, 1) || uf.Same(1, 2) || !uf.Same(3, 4) {
		t.Fatal("union-find wrong")
	}
	uf.Union(1, 3)
	if !uf.Same(0, 4) {
		t.Fatal("union-find transitivity wrong")
	}
	classes := uf.Classes()
	if len(classes) != 2 {
		t.Fatalf("classes=%v", classes)
	}
}
