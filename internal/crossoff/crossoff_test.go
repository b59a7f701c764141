package crossoff

import (
	"cmp"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"systolic/internal/gen"
	"systolic/internal/model"
	"systolic/internal/topology"
)

// build constructs a program from compact specs: msgs are
// {name, sender, receiver, words}; code maps cell index to "W:A R:B"
// style op lists.
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
			kind, name := op[0], op[2:]
			if kind == 'W' {
				b.Write(ids[c], byName[name])
			} else {
				b.Read(ids[c], byName[name])
			}
		}
	}
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// p1 is Fig 5/Fig 10's program P1.
func p1(t testing.TB) *model.Program {
	return build(t, 2,
		[]msgSpec{{"A", 0, 1, 4}, {"B", 0, 1, 2}},
		[][]string{
			{"W:A", "W:A", "W:B", "W:A", "W:B", "W:A"},
			{"R:B", "R:A", "R:B", "R:A", "R:A", "R:A"},
		})
}

func TestStrictSimplePipeline(t *testing.T) {
	p := build(t, 2,
		[]msgSpec{{"A", 0, 1, 3}},
		[][]string{{"W:A", "W:A", "W:A"}, {"R:A", "R:A", "R:A"}})
	res := Run(p, Options{})
	if !res.DeadlockFree || len(res.Order) != 3 || res.RemainingOps != 0 {
		t.Fatalf("pipeline: %+v", res)
	}
}

func TestStrictDeadlockedP1(t *testing.T) {
	res := Run(p1(t), Options{})
	if res.DeadlockFree {
		t.Fatal("P1 classified deadlock-free strictly")
	}
	if res.RemainingOps != 12 {
		t.Fatalf("P1 crossed %d ops, want 0 (remaining %d)", 12-res.RemainingOps, res.RemainingOps)
	}
	if len(res.Blocked) != 2 {
		t.Fatalf("blocked=%v", res.Blocked)
	}
	// C1 blocked at its first W(A), C2 at its first R(B).
	if res.Blocked[0].Op.Kind != model.Write || res.Blocked[1].Op.Kind != model.Read {
		t.Fatalf("blocked fronts wrong: %v", res.Blocked)
	}
}

func TestLookaheadAdmitsP1WithBudget2(t *testing.T) {
	p := p1(t)
	res := Run(p, Options{Lookahead: true, Budget: UniformBudget(2)})
	if !res.DeadlockFree {
		t.Fatal("P1 rejected with budget 2")
	}
	// Fig 10: the first pair is B's, skipping two W(A)s; the third is
	// B's second word, again skipping two W(A)s.
	if p.Message(res.Order[0].Msg).Name != "B" || len(res.Order[0].Skipped) != 2 {
		t.Fatalf("first pair %v", FormatPair(p, res.Order[0]))
	}
	if p.Message(res.Order[1].Msg).Name != "A" || len(res.Order[1].Skipped) != 0 {
		t.Fatalf("second pair %v", FormatPair(p, res.Order[1]))
	}
	if p.Message(res.Order[2].Msg).Name != "B" || len(res.Order[2].Skipped) != 2 {
		t.Fatalf("third pair %v", FormatPair(p, res.Order[2]))
	}
	for _, pr := range res.Order {
		for _, sk := range pr.Skipped {
			if p.Message(sk.Msg).Name != "A" {
				t.Fatalf("skipped a non-A write: %v", FormatPair(p, pr))
			}
		}
	}
}

func TestLookaheadBudget1RejectsP1(t *testing.T) {
	if Classify(p1(t), Options{Lookahead: true, Budget: UniformBudget(1)}) {
		t.Fatal("P1 admitted with budget 1")
	}
}

func TestLookaheadUnboundedBudget(t *testing.T) {
	// nil budget = infinite buffering; P1 is admitted.
	if !Classify(p1(t), Options{Lookahead: true}) {
		t.Fatal("P1 rejected with unbounded lookahead")
	}
}

func TestLookaheadNeverSkipsReads(t *testing.T) {
	// P3: both cells read before writing; lookahead must not admit it.
	p := build(t, 2,
		[]msgSpec{{"A", 0, 1, 1}, {"B", 1, 0, 1}},
		[][]string{{"R:B", "W:A"}, {"R:A", "W:B"}})
	if Classify(p, Options{Lookahead: true}) {
		t.Fatal("rule R1 violated: read was skipped")
	}
}

func TestLookaheadAdmitsP2(t *testing.T) {
	// P2: both cells write before reading; one word of buffering
	// suffices.
	p := build(t, 2,
		[]msgSpec{{"A", 0, 1, 1}, {"B", 1, 0, 1}},
		[][]string{{"W:A", "R:B"}, {"W:B", "R:A"}})
	if Classify(p, Options{}) {
		t.Fatal("P2 classified deadlock-free strictly")
	}
	if !Classify(p, Options{Lookahead: true, Budget: UniformBudget(1)}) {
		t.Fatal("P2 rejected with budget 1")
	}
}

func TestScheduleRoundsAreMaximal(t *testing.T) {
	// Two independent pipelines cross in parallel every round.
	p := build(t, 4,
		[]msgSpec{{"A", 0, 1, 2}, {"B", 2, 3, 2}},
		[][]string{
			{"W:A", "W:A"}, {"R:A", "R:A"},
			{"W:B", "W:B"}, {"R:B", "R:B"},
		})
	rounds, free := Schedule(p)
	if !free {
		t.Fatal("parallel pipelines deadlocked")
	}
	if len(rounds) != 2 {
		t.Fatalf("rounds=%d, want 2", len(rounds))
	}
	for _, r := range rounds {
		if len(r.Pairs) != 2 {
			t.Fatalf("round %d has %d pairs, want 2", r.Step, len(r.Pairs))
		}
	}
}

func TestScheduleDeadlockedReportsFalse(t *testing.T) {
	if _, free := Schedule(p1(t)); free {
		t.Fatal("Schedule accepted P1")
	}
}

// randomPicker breaks the default deterministic order.
func randomPicker(rng *rand.Rand) PairPicker {
	return func(cands []Pair) Pair { return cands[rng.Intn(len(cands))] }
}

// TestConfluence: the deadlock-free verdict must not depend on the
// pair-selection order (the paper's procedure says "pick an executable
// pair" without constraining which).
func TestConfluence(t *testing.T) {
	progs := []*model.Program{
		p1(t),
		build(t, 3,
			[]msgSpec{{"A", 0, 1, 3}, {"B", 1, 2, 3}, {"C", 2, 0, 1}},
			[][]string{
				{"W:A", "W:A", "W:A", "R:C"},
				{"R:A", "W:B", "R:A", "W:B", "R:A", "W:B"},
				{"R:B", "R:B", "R:B", "W:C"},
			}),
	}
	for pi, p := range progs {
		want := Classify(p, Options{})
		for seed := int64(0); seed < 30; seed++ {
			rng := rand.New(rand.NewSource(seed))
			got := Classify(p, Options{Picker: randomPicker(rng)})
			if got != want {
				t.Fatalf("program %d: verdict depends on pick order (seed %d): %v vs %v", pi, seed, got, want)
			}
		}
		// Lookahead verdicts must be order-independent too.
		wantLA := Classify(p, Options{Lookahead: true, Budget: UniformBudget(2)})
		for seed := int64(0); seed < 30; seed++ {
			rng := rand.New(rand.NewSource(seed))
			got := Classify(p, Options{Lookahead: true, Budget: UniformBudget(2), Picker: randomPicker(rng)})
			if got != wantLA {
				t.Fatalf("program %d: lookahead verdict depends on pick order (seed %d)", pi, seed)
			}
		}
	}
}

// TestLookaheadMonotoneInBudget: a bigger budget never rejects a
// program a smaller one admitted.
func TestLookaheadMonotoneInBudget(t *testing.T) {
	progs := []*model.Program{p1(t)}
	for _, p := range progs {
		prev := false
		for budget := 0; budget <= 4; budget++ {
			got := Classify(p, Options{Lookahead: true, Budget: UniformBudget(budget)})
			if prev && !got {
				t.Fatalf("budget %d rejected but %d admitted", budget, budget-1)
			}
			prev = got
		}
	}
}

// TestStrictImpliesLookahead: every strictly deadlock-free program is
// lookahead deadlock-free with any budget.
func TestStrictImpliesLookahead(t *testing.T) {
	p := build(t, 2,
		[]msgSpec{{"A", 0, 1, 2}, {"B", 1, 0, 2}},
		[][]string{{"W:A", "R:B", "W:A", "R:B"}, {"R:A", "W:B", "R:A", "W:B"}})
	if !Classify(p, Options{}) {
		t.Fatal("expected strict deadlock-free")
	}
	if !Classify(p, Options{Lookahead: true, Budget: UniformBudget(0)}) {
		t.Fatal("lookahead with zero budget rejected a strictly-fine program")
	}
}

func TestObserverSeesEveryPair(t *testing.T) {
	p := p1(t)
	var seen int
	Run(p, Options{Lookahead: true, Budget: UniformBudget(2), Observer: func(Pair) { seen++ }})
	if seen != 6 {
		t.Fatalf("observer saw %d pairs, want 6", seen)
	}
}

func TestPickers(t *testing.T) {
	cands := []Pair{
		{Msg: 3, WriteIdx: 0, Skipped: []Skip{{}, {}}},
		{Msg: 1, WriteIdx: 5, Skipped: []Skip{{}}},
		{Msg: 1, WriteIdx: 2, Skipped: nil},
	}
	if got := ByMessageID(cands); got.Msg != 1 || got.WriteIdx != 2 {
		t.Fatalf("ByMessageID picked %+v", got)
	}
	if got := ByFewestSkips(cands); len(got.Skipped) != 0 {
		t.Fatalf("ByFewestSkips picked %+v", got)
	}
}

func TestDescribeBlocked(t *testing.T) {
	p := p1(t)
	res := Run(p, Options{})
	s := DescribeBlocked(p, res.Blocked)
	if s == "none" || len(s) == 0 {
		t.Fatalf("DescribeBlocked = %q", s)
	}
	if DescribeBlocked(p, nil) != "none" {
		t.Fatal("empty blocked list should render 'none'")
	}
}

func TestBudgetFromRoutesViaUniform(t *testing.T) {
	// BudgetFromRoutes is exercised end-to-end in core tests; here the
	// arithmetic: capacity × hops, and out-of-range ids budget 0.
	b := BudgetFromRoutes(nil, 3)
	if b(0) != 0 {
		t.Fatal("out-of-range message should have zero budget")
	}
	// A product past MaxInt saturates: it must not wrap negative and
	// reject what a smaller capacity admits.
	routes := [][]topology.Hop{make([]topology.Hop, 2), nil}
	for _, tc := range []struct{ capacity, want int }{
		{3, 6}, {math.MaxInt / 2, math.MaxInt - 1}, {math.MaxInt/2 + 1, math.MaxInt}, {math.MaxInt, math.MaxInt},
	} {
		if got := BudgetFromRoutes(routes, tc.capacity)(0); got != tc.want {
			t.Errorf("capacity %d over 2 hops: budget %d, want %d", tc.capacity, got, tc.want)
		}
		if got := BudgetFromRoutes(routes, tc.capacity)(1); got != 0 {
			t.Errorf("capacity %d over no hops: budget %d, want 0", tc.capacity, got)
		}
	}
}

// checkStrictWalk holds the strict cursor walk to the general lookahead
// path: strict rules are lookahead with a zero budget, which rejects
// every skip, so Run must report the same pairs in the same order, the
// same blocked fronts and the same ops left. Schedule's rounds,
// flattened, must hold exactly Run's pairs, each round ascending by
// message. Under every rule set of trackerRules, the tracker must keep
// to checkTracker's invariant. It returns the verdict.
func checkStrictWalk(t testing.TB, p *model.Program) bool {
	t.Helper()
	for _, rules := range trackerRules {
		checkTracker(t, p, rules.name, rules.opts)
	}
	strict := Run(p, Options{})
	zero := Run(p, Options{Lookahead: true, Budget: UniformBudget(0)})
	if !reflect.DeepEqual(strict, zero) {
		t.Fatalf("strict Run %+v, zero-budget lookahead Run %+v", strict, zero)
	}
	rounds, free := Schedule(p)
	if free != strict.DeadlockFree {
		t.Fatalf("Schedule verdict %v, Run verdict %v", free, strict.DeadlockFree)
	}
	flat := []Pair{}
	for _, r := range rounds {
		if !slices.IsSortedFunc(r.Pairs, func(a, b Pair) int { return cmp.Compare(a.Msg, b.Msg) }) {
			t.Fatalf("round %d is not ascending by message: %+v", r.Step, r.Pairs)
		}
		flat = append(flat, r.Pairs...)
	}
	byPair := func(a, b Pair) int {
		return cmp.Or(cmp.Compare(a.Msg, b.Msg), cmp.Compare(a.WriteIdx, b.WriteIdx))
	}
	order := append([]Pair{}, strict.Order...)
	slices.SortFunc(flat, byPair)
	slices.SortFunc(order, byPair)
	if !reflect.DeepEqual(flat, order) {
		t.Fatalf("Schedule's rounds hold %+v, Run crossed %+v", flat, order)
	}
	return strict.DeadlockFree
}

// trackerRules are the rule sets checkTracker holds the admission rule
// to: strict, and lookahead at budgets 0, 1, 2, one per message and
// unbounded.
var trackerRules = []struct {
	name string
	opts Options
}{
	{"strict", Options{}},
	{"budget 0", Options{Lookahead: true, Budget: UniformBudget(0)}},
	{"budget 1", Options{Lookahead: true, Budget: UniformBudget(1)}},
	{"budget 2", Options{Lookahead: true, Budget: UniformBudget(2)}},
	{"budget m%3", Options{Lookahead: true, Budget: func(m model.MessageID) int { return int(m) % 3 }}},
	{"unbounded", Options{Lookahead: true}},
}

// checkTracker crosses p off under opts and holds the incremental
// candidate set to its definition: at the start and after every
// crossed pair, a message is live, on a slot, iff a fresh probe finds
// its pair at those indexes. The probes run on a second state that
// crosses the same pairs and locates under the same rules, the strict
// ones as lookahead with a zero budget.
func checkTracker(t testing.TB, p *model.Program, name string, opts Options) {
	t.Helper()
	probing := opts
	if !opts.Lookahead {
		probing = Options{Lookahead: true, Budget: UniformBudget(0)}
	}
	s, fresh := newState(p, opts), newState(p, probing)
	tr := newTracker(s)
	for pairs := 0; ; pairs++ {
		for _, m := range p.Messages() {
			w, r, ok := fresh.probe(m)
			if ok != tr.live[m.ID] || ok && tr.cand[m.ID] != (slot{w, r}) {
				t.Fatalf("%s, after %d pairs: message %s live %v on %+v, a fresh probe finds %v on W@%d R@%d",
					name, pairs, m.Name, tr.live[m.ID], tr.cand[m.ID], ok, w, r)
			}
		}
		i, ok := tr.pick()
		if !ok {
			return
		}
		pr := tr.picked(i)
		s.cross(pr)
		fresh.cross(pr)
		tr.crossed(pr)
	}
}

// TestStrictWalkMatchesZeroBudgetLookahead runs checkStrictWalk over a
// thousand generated programs, about half of them deadlocked.
func TestStrictWalkMatchesZeroBudgetLookahead(t *testing.T) {
	verdicts := map[bool]int{}
	for seed := int64(1); seed <= 1000; seed++ {
		sc, err := gen.Generate(seed, gen.Options{Cells: 8, Messages: 16, MaxWords: 4, Interleave: 4, Cyclic: seed%2 == 0, Mutations: int(seed % 8)})
		if err != nil {
			t.Fatal(err)
		}
		verdicts[checkStrictWalk(t, sc.Program)]++
	}
	t.Logf("%d deadlock-free, %d deadlocked", verdicts[true], verdicts[false])
	if verdicts[true] == 0 || verdicts[false] == 0 {
		t.Fatalf("the corpus holds one verdict only: %v", verdicts)
	}
}

// FuzzStrictWalk runs checkStrictWalk on generated programs whose
// generator options come from the fuzz input.
func FuzzStrictWalk(f *testing.F) {
	f.Add(int64(1), uint8(8), uint8(16), uint8(4), uint8(4), uint8(3), true)
	f.Add(int64(7), uint8(2), uint8(1), uint8(1), uint8(1), uint8(0), false)
	f.Add(int64(42), uint8(12), uint8(30), uint8(6), uint8(30), uint8(12), true)
	f.Fuzz(func(t *testing.T, seed int64, cells, msgs, words, interleave, mutations uint8, cyclic bool) {
		sc, err := gen.Generate(seed, gen.Options{
			Cells:      2 + int(cells%15),
			Messages:   1 + int(msgs%32),
			MaxWords:   1 + int(words%6),
			Interleave: 1 + int(interleave%32),
			Cyclic:     cyclic,
			Mutations:  int(mutations % 16),
			Topology:   gen.TopoLinear,
		})
		if err != nil {
			t.Fatal(err)
		}
		checkStrictWalk(t, sc.Program)
	})
}

// TestRunOrderOwnsSkips: a pass keeps one skip buffer, which the
// observer sees and the next probe overwrites, so Run must hand each
// pair of its order a copy of its own. Each entry's skips must be the
// ones a fresh state, crossed up to that pair, locates again, and no
// two entries may share memory — under the default picker and a custom
// one, whose candidates are laid out in a buffer of their own.
func TestRunOrderOwnsSkips(t *testing.T) {
	type span struct{ start, end uintptr }
	withSkips := 0
	for seed := int64(1); seed <= 60; seed++ {
		sc, err := gen.Generate(seed, gen.Options{Cells: 6, Messages: 10, MaxWords: 4, Interleave: 4, Cyclic: seed%2 == 0})
		if err != nil {
			t.Fatal(err)
		}
		p := sc.Program
		for _, picker := range []PairPicker{nil, ByFewestSkips} {
			opts := Options{Lookahead: true, Budget: UniformBudget(2), Picker: picker}
			res := Run(p, opts)
			s := newState(p, opts)
			var spans []span
			for i, pr := range res.Order {
				w, r, ok := s.probe(p.Message(pr.Msg))
				if !ok || w != pr.WriteIdx || r != pr.ReadIdx || !slices.Equal(s.skips, pr.Skipped) {
					t.Fatalf("seed %d, pair %d: order has %+v, recomputed W@%d R@%d skipping %v", seed, i, pr, w, r, s.skips)
				}
				s.cross(pr)
				if n := cap(pr.Skipped); n > 0 {
					start := uintptr(unsafe.Pointer(&pr.Skipped[:n][0]))
					spans = append(spans, span{start, start + uintptr(n)*unsafe.Sizeof(Skip{})})
				}
			}
			withSkips += len(spans)
			slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.start, b.start) })
			for i := 1; i < len(spans); i++ {
				if spans[i].start < spans[i-1].end {
					t.Fatalf("seed %d: two pairs of the order share skip memory", seed)
				}
			}
		}
	}
	if withSkips == 0 {
		t.Fatal("no pair skipped a write: the test checks nothing")
	}
	t.Logf("%d pairs with skips", withSkips)
}
