package label

import (
	"math/rand"
	"testing"

	"systolic/internal/crossoff"
	"systolic/internal/model"
)

func TestAssignByOrderFig7(t *testing.T) {
	p := fig7(t)
	lab, err := assignByOrder(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(p, lab.ByMessage); err != nil {
		t.Fatal(err)
	}
	// Order constraints: A ≤ B (C3), C ≤ B (C4); B strictly above both.
	a, _ := p.MessageByName("A")
	b, _ := p.MessageByName("B")
	c, _ := p.MessageByName("C")
	if !(lab.Dense[a.ID] < lab.Dense[b.ID] && lab.Dense[c.ID] < lab.Dense[b.ID]) {
		t.Fatalf("dense labels A=%d B=%d C=%d", lab.Dense[a.ID], lab.Dense[b.ID], lab.Dense[c.ID])
	}
}

func TestAssignByOrderMergesInterleavings(t *testing.T) {
	// Fig 8 shape: interleaved reads force equal labels via the SCC.
	p := build(t, 3,
		[]msgSpec{{"A", 1, 2, 4}, {"B", 0, 2, 3}},
		[][]string{
			{"W:B", "W:B", "W:B"},
			{"W:A", "W:A", "W:A", "W:A"},
			{"R:A", "R:B", "R:A", "R:A", "R:B", "R:B", "R:A"},
		})
	lab, err := assignByOrder(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lab.Dense[0] != lab.Dense[1] {
		t.Fatalf("interleaved messages labeled %d and %d", lab.Dense[0], lab.Dense[1])
	}
}

func TestAssignByOrderExtraEqualities(t *testing.T) {
	// Two independent pipelines; an injected equality ties them.
	p := build(t, 4,
		[]msgSpec{{"A", 0, 1, 1}, {"B", 2, 3, 1}},
		[][]string{{"W:A"}, {"R:A"}, {"W:B"}, {"R:B"}})
	lab, err := assignByOrder(p, [][2]model.MessageID{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if lab.Dense[0] != lab.Dense[1] {
		t.Fatalf("equality ignored: %v", lab.Dense)
	}
}

func TestAssignByOrderRejectsTrulyDeadlocked(t *testing.T) {
	p := build(t, 2,
		[]msgSpec{{"A", 0, 1, 1}, {"B", 1, 0, 1}},
		[][]string{{"R:B", "W:A"}, {"R:A", "W:B"}})
	if _, err := assignByOrder(p, nil); err == nil {
		t.Fatal("deadlocked program labeled")
	}
}

// regression103 is the generated program (seed 103 of the Theorem 1
// property test) on which the literal §6 greedy scheme commits a
// related class (M1=M6, interleaved at C4) to a label before M1's
// sender constraints (M7 ≤ M4 ≤ M1 at C2) are visible. A consistent
// labeling exists; Assign must find one via its fallback.
func regression103(t *testing.T) *model.Program {
	return build(t, 6,
		[]msgSpec{
			{"M1", 1, 3, 4}, {"M2", 2, 0, 2}, {"M3", 4, 5, 1},
			{"M4", 2, 1, 1}, {"M5", 2, 4, 3}, {"M6", 3, 5, 4}, {"M7", 2, 1, 1},
		},
		[][]string{
			{"R:M2", "R:M2"},
			{"R:M7", "R:M4", "W:M1", "W:M1", "W:M1", "W:M1"},
			{"W:M7", "W:M2", "W:M2", "W:M5", "W:M4", "W:M5", "W:M5"},
			{"W:M6", "R:M1", "R:M1", "R:M1", "W:M6", "W:M6", "W:M6", "R:M1"},
			{"W:M3", "R:M5", "R:M5", "R:M5"},
			{"R:M3", "R:M6", "R:M6", "R:M6", "R:M6"},
		})
}

func TestGreedyCornerCaseFallsBackConsistently(t *testing.T) {
	p := regression103(t)
	if !crossoff.Classify(p, crossoff.Options{}) {
		t.Fatal("regression program should be deadlock-free")
	}
	lab, err := Assign(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(p, lab.ByMessage); err != nil {
		t.Fatalf("Assign returned inconsistent labels: %v", err)
	}
	if len(lab.Warnings) == 0 {
		t.Fatal("expected a fallback warning on the greedy corner case")
	}
	// The constraint structure: M7 ≤ M2 ≤ M5 = M4 ≤ M1 = M6, M3 ≤ M5.
	get := func(name string) int {
		m, _ := p.MessageByName(name)
		return lab.Dense[m.ID]
	}
	if get("M4") != get("M5") || get("M1") != get("M6") {
		t.Fatalf("forced equalities broken: M4=%d M5=%d M1=%d M6=%d",
			get("M4"), get("M5"), get("M1"), get("M6"))
	}
	if !(get("M7") <= get("M2") && get("M2") <= get("M5") && get("M4") <= get("M1")) {
		t.Fatal("order constraints broken")
	}
}

func TestAssignByOrderAlwaysConsistentOnRandomDAGs(t *testing.T) {
	// Random deadlock-free programs built the same way as the verify
	// generator (duplicated here to avoid an import cycle).
	for seed := int64(0); seed < 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := randomDF(t, rng, 2+rng.Intn(5), 1+rng.Intn(8), 4)
		lab, err := assignByOrder(p, nil)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := Check(p, lab.ByMessage); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, p)
		}
	}
}

func TestAssignNeverReturnsInconsistent(t *testing.T) {
	// The headline contract after the fallback change: whatever path
	// Assign takes, the result passes Check.
	for seed := int64(0); seed < 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		p := randomDF(t, rng, 2+rng.Intn(5), 1+rng.Intn(8), 4)
		lab, err := Assign(p, Options{})
		if err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, p)
		}
		if err := Check(p, lab.ByMessage); err != nil {
			t.Fatalf("seed %d: %v\n%s", seed, err, p)
		}
	}
}

func randomDF(t testing.TB, rng *rand.Rand, cells, messages, maxWords int) *model.Program {
	t.Helper()
	b := model.NewBuilder()
	ids := b.AddCells("C", cells)
	type decl struct {
		id   model.MessageID
		s, r model.CellID
		left int
	}
	var msgs []decl
	for i := 0; i < messages; i++ {
		s := rng.Intn(cells)
		r := rng.Intn(cells - 1)
		if r >= s {
			r++
		}
		words := 1 + rng.Intn(maxWords)
		id := b.DeclareMessage(
			"M"+string(rune('A'+i)), ids[s], ids[r], words)
		msgs = append(msgs, decl{id: id, s: ids[s], r: ids[r], left: words})
	}
	live := make([]int, len(msgs))
	for i := range live {
		live[i] = i
	}
	for len(live) > 0 {
		k := rng.Intn(len(live))
		i := live[k]
		b.Write(msgs[i].s, msgs[i].id)
		b.Read(msgs[i].r, msgs[i].id)
		msgs[i].left--
		if msgs[i].left == 0 {
			live = append(live[:k], live[k+1:]...)
		}
	}
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}
