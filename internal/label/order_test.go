package label

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"systolic/internal/crossoff"
	"systolic/internal/gen"
	"systolic/internal/model"
	"systolic/internal/rational"
	"systolic/internal/topology"
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

// listOrderLabels is the order-based construction as it stood before
// the flat layout: an adjacency list grown per edge, a recursive
// Kosaraju, a member list per component, and densify over the ranks.
// TestOrderLabelsMatchesListConstruction holds orderLabels to it.
func listOrderLabels(p *model.Program, extraEqualities [][2]model.MessageID) Labeling {
	n := p.NumMessages()
	adj := make([][]int, n)
	addEdge := func(u, v model.MessageID) {
		if u != v {
			adj[u] = append(adj[u], int(v))
		}
	}
	for c := 0; c < p.NumCells(); c++ {
		code := p.Code(model.CellID(c))
		for i := 1; i < len(code); i++ {
			addEdge(code[i-1].Msg, code[i].Msg)
		}
	}
	for _, eq := range extraEqualities {
		addEdge(eq[0], eq[1])
		addEdge(eq[1], eq[0])
	}
	visited := make([]bool, n)
	var post []int
	var dfs1 func(int)
	dfs1 = func(u int) {
		visited[u] = true
		for _, v := range adj[u] {
			if !visited[v] {
				dfs1(v)
			}
		}
		post = append(post, u)
	}
	for u := 0; u < n; u++ {
		if !visited[u] {
			dfs1(u)
		}
	}
	radj := make([][]int, n)
	for u, vs := range adj {
		for _, v := range vs {
			radj[v] = append(radj[v], u)
		}
	}
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	var dfs2 func(int, int)
	dfs2 = func(u, c int) {
		comp[u] = c
		for _, v := range radj[u] {
			if comp[v] == -1 {
				dfs2(v, c)
			}
		}
	}
	nc := 0
	for i := len(post) - 1; i >= 0; i-- {
		if comp[post[i]] == -1 {
			dfs2(post[i], nc)
			nc++
		}
	}
	rank := make([]int, nc)
	members := make([][]int, nc)
	for m, c := range comp {
		rank[c] = 1
		members[c] = append(members[c], m)
	}
	for c := 0; c < nc; c++ {
		for _, u := range members[c] {
			for _, v := range adj[u] {
				if cv := comp[v]; cv != c && rank[c]+1 > rank[cv] {
					rank[cv] = rank[c] + 1
				}
			}
		}
	}
	lab := Labeling{ByMessage: make([]rational.R, n)}
	for m := 0; m < n; m++ {
		lab.ByMessage[m] = rational.FromInt(int64(rank[comp[m]]))
	}
	lab.Dense = densify(lab.ByMessage)
	return lab
}

// TestOrderLabelsMatchesListConstruction: the flat-array fallback must
// label exactly as the list-based one did — the ranks depend only on
// the constraint graph — with no equalities, with the rule-1d
// equalities of a lookahead pass, and with random ones that merge
// unrelated messages.
func TestOrderLabelsMatchesListConstruction(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, c := range append(corpusRefCases(t), generatedRefCases(t)...) {
		routes, err := topology.Routes(c.p, c.t)
		if err != nil {
			t.Fatal(err)
		}
		random := make([][2]model.MessageID, rng.Intn(4))
		for i := range random {
			n := c.p.NumMessages()
			random[i] = [2]model.MessageID{model.MessageID(rng.Intn(n)), model.MessageID(rng.Intn(n))}
		}
		for _, eqs := range [][][2]model.MessageID{nil, lookaheadEqualities(c.p, crossoff.BudgetFromRoutes(routes, 1)), random} {
			got, want := orderLabels(c.p, eqs), listOrderLabels(c.p, eqs)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, equalities %v: labels %v, list construction %v", c.name, eqs, got.Dense, want.Dense)
			}
		}
	}
}

// TestFallbackMatchesReference holds Assign to the reference on the
// programs cold-pipeline analyzes with the generator, whose greedy
// labeling falls back on every seed: strict, and under lookahead, where
// the fallback's rule-1d equalities come from the pass the labeler
// observed (default picker) or from a pass of their own (a custom one).
func TestFallbackMatchesReference(t *testing.T) {
	fallbacks := 0
	for seed := int64(1); seed <= 8; seed++ {
		sc, err := gen.Generate(seed, gen.Options{Cells: 32, Messages: 64, MaxWords: 4, Interleave: 4, Cyclic: true, Topology: gen.TopoMesh})
		if err != nil {
			t.Fatal(err)
		}
		routes, err := topology.Routes(sc.Program, sc.Topology)
		if err != nil {
			t.Fatal(err)
		}
		for _, picker := range []crossoff.PairPicker{nil, crossoff.ByFewestSkips} {
			for _, opts := range []Options{
				{Picker: picker},
				{Lookahead: true, Budget: crossoff.BudgetFromRoutes(routes, 2), Picker: picker},
			} {
				got, gotErr := Assign(sc.Program, opts)
				want, wantErr := referenceAssign(sc.Program, opts)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d, lookahead %v: got %+v (%v), reference %+v (%v)", seed, opts.Lookahead, got, gotErr, want, wantErr)
				}
				if n := len(got.Warnings); n > 0 && strings.Contains(got.Warnings[n-1], "fell back") {
					fallbacks++
				}
			}
		}
	}
	if fallbacks == 0 {
		t.Fatal("no generated program fell back: the test checks nothing")
	}
	t.Logf("%d fallbacks", fallbacks)
}
