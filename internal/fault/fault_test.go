package fault

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"

	"systolic/internal/model"
	"systolic/internal/topology"
)

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name string
		plan *Plan
	}{
		{"cell out of range", &Plan{Cells: []CellFault{{Cell: 5, Factor: 2}}}},
		{"negative cell", &Plan{Cells: []CellFault{{Cell: -1, Factor: 2}}}},
		{"duplicate cell", &Plan{Cells: []CellFault{{Cell: 1, Factor: 2}, {Cell: 1, Dead: true}}}},
		{"negative factor", &Plan{Cells: []CellFault{{Cell: 0, Factor: -2}}}},
		{"dead plus slow", &Plan{Cells: []CellFault{{Cell: 0, Dead: true, Factor: 3}}}},
		{"negative from", &Plan{Cells: []CellFault{{Cell: 0, Factor: 2, From: -1}}}},
		{"link out of range", &Plan{Links: []LinkFault{{Link: 4, Factor: 2}}}},
		{"duplicate link", &Plan{Links: []LinkFault{{Link: 0, Factor: 2}, {Link: 0, Severed: true}}}},
		{"severed plus slow", &Plan{Links: []LinkFault{{Link: 0, Severed: true, Factor: 2}}}},
		{"link negative from", &Plan{Links: []LinkFault{{Link: 0, Factor: 2, From: -3}}}},
	}
	for _, c := range cases {
		if err := c.plan.Validate(5, 4); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	var nilPlan *Plan
	if err := nilPlan.Validate(0, 0); err != nil {
		t.Errorf("nil plan rejected: %v", err)
	}
	ok := &Plan{
		Cells: []CellFault{{Cell: 0, Factor: 3}, {Cell: 4, Dead: true, From: 7}},
		Links: []LinkFault{{Link: 3, Severed: true}, {Link: 0, Factor: 2, From: 1}},
	}
	if err := ok.Validate(5, 4); err != nil {
		t.Errorf("valid plan rejected: %v", err)
	}
}

// TestValidateInt32Bounds: the machine lowers factors and
// effective-from cycles to int32, where a larger value wraps — a
// slowdown of 2³¹ to a dead cell, 2³²+2 to a slowdown of 2, @2³¹ to
// cycle 0 — so Validate accepts 2³¹−1 and refuses 2³¹ in each of the
// four fields.
func TestValidateInt32Bounds(t *testing.T) {
	for _, c := range []struct {
		name  string
		plan  func(v int) *Plan
		field string
	}{
		{"cell factor", func(v int) *Plan { return &Plan{Cells: []CellFault{{Cell: 0, Factor: v}}} }, "slowdown factor"},
		{"cell from", func(v int) *Plan { return &Plan{Cells: []CellFault{{Cell: 0, Factor: 2, From: v}}} }, "effective-from"},
		{"link factor", func(v int) *Plan { return &Plan{Links: []LinkFault{{Link: 0, Factor: v}}} }, "throttle factor"},
		{"link from", func(v int) *Plan { return &Plan{Links: []LinkFault{{Link: 0, Factor: 2, From: v}}} }, "effective-from"},
	} {
		if err := c.plan(math.MaxInt32).Validate(5, 4); err != nil {
			t.Errorf("%s 2³¹−1 rejected: %v", c.name, err)
		}
		err := c.plan(math.MaxInt32+1).Validate(5, 4)
		if err == nil || !strings.Contains(err.Error(), c.field) || !strings.Contains(err.Error(), "exceeds 2147483647") {
			t.Errorf("%s 2³¹: %v, want the %s bound error", c.name, err, c.field)
		}
	}
}

func TestIsNoop(t *testing.T) {
	var nilPlan *Plan
	if !nilPlan.IsNoop() {
		t.Error("nil plan not noop")
	}
	if !(&Plan{}).IsNoop() {
		t.Error("empty plan not noop")
	}
	factor1 := &Plan{
		Cells: []CellFault{{Cell: 0, Factor: 1}, {Cell: 1, Factor: 0}},
		Links: []LinkFault{{Link: 0, Factor: 1}},
	}
	if !factor1.IsNoop() {
		t.Error("all-factor-1 plan not noop")
	}
	for _, p := range []*Plan{
		{Cells: []CellFault{{Cell: 0, Factor: 2}}},
		{Cells: []CellFault{{Cell: 0, Dead: true}}},
		{Links: []LinkFault{{Link: 0, Severed: true}}},
	} {
		if p.IsNoop() {
			t.Errorf("%s classified as noop", p)
		}
	}
}

// roundTripSpecs are canonical fault specs; FuzzSpec seeds with them.
var roundTripSpecs = []string{
	"cell:2:slow=3",
	"cell:0:dead",
	"cell:1:dead@12",
	"link:4:slow=2@7",
	"link:3:sever",
	"cell:2:slow=3,cell:0:dead@5,link:1:slow=4,link:0:sever@9",
}

func TestParseSpecRoundTrip(t *testing.T) {
	for _, s := range roundTripSpecs {
		p, err := ParseSpec(s)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", s, err)
			continue
		}
		if got := p.String(); got != s {
			t.Errorf("round trip %q → %q", s, got)
		}
	}
	// Whitespace is tolerated, canonical form is tight.
	p, err := ParseSpec(" cell:1:slow=2 , link:0:sever ")
	if err != nil {
		t.Fatalf("spaced spec: %v", err)
	}
	if got := p.String(); got != "cell:1:slow=2,link:0:sever" {
		t.Errorf("spaced spec canonicalized to %q", got)
	}
	if p2, err := ParseSpec(""); err != nil || p2 != nil {
		t.Errorf("empty spec → (%v, %v), want (nil, nil)", p2, err)
	}
	bad := []string{
		"cell:1",          // missing effect
		"cell:x:slow=2",   // bad index
		"cell:1:slow=x",   // bad factor
		"cell:1:sever",    // cells die
		"link:1:dead",     // links sever
		"cell:1:slow=2@x", // bad from
		"queue:1:slow=2",  // unknown kind
		"cell:1:explode",  // unknown effect
	}
	for _, s := range bad {
		if _, err := ParseSpec(s); err == nil {
			t.Errorf("ParseSpec(%q) accepted", s)
		}
	}
}

func TestLowerGates(t *testing.T) {
	plan := &Plan{
		Cells: []CellFault{
			{Cell: 1, Factor: 3},           // slow from cycle 0
			{Cell: 2, Dead: true, From: 5}, // dead from cycle 5
			{Cell: 3, Factor: 1},           // no-op entry
		},
		Links: []LinkFault{
			{Link: 0, Factor: 2, From: 4}, // throttled from cycle 4
			{Link: 2, Severed: true},      // severed from cycle 0
		},
	}
	l := Lower(new(Lowered), plan, 4, 3)
	if l == nil {
		t.Fatal("Lower returned nil for an effective plan")
	}

	// Unfaulted cell always open.
	for cyc := 0; cyc < 10; cyc++ {
		if !l.CellOpen(0, cyc) {
			t.Errorf("healthy cell closed at %d", cyc)
		}
	}
	// Factor-3 cell: open exactly on multiples of 3 (global phase).
	for cyc := 0; cyc < 12; cyc++ {
		want := cyc%3 == 0
		if got := l.CellOpen(1, cyc); got != want {
			t.Errorf("slow cell at %d: open=%v, want %v", cyc, got, want)
		}
	}
	// Dead-from-5 cell: open before 5, closed forever after.
	for cyc := 0; cyc < 10; cyc++ {
		want := cyc < 5
		if got := l.CellOpen(2, cyc); got != want {
			t.Errorf("dead cell at %d: open=%v, want %v", cyc, got, want)
		}
	}
	// Factor-1 entry lowered to no gate.
	if !l.CellOpen(3, 7) {
		t.Error("factor-1 cell gated")
	}
	// Throttled-from-4 link: open before 4, then even cycles only.
	for cyc := 0; cyc < 10; cyc++ {
		want := cyc < 4 || cyc%2 == 0
		if got := l.LinkOpen(0, cyc); got != want {
			t.Errorf("throttled link at %d: open=%v, want %v", cyc, got, want)
		}
	}
	// Severed link closed from cycle 0.
	if l.LinkOpen(2, 0) || l.LinkOpen(2, 100) {
		t.Error("severed link open")
	}
	// Healthy link open.
	if !l.LinkOpen(1, 3) {
		t.Error("healthy link closed")
	}

	// AllPeriodicOpen: factor 3 (from 0) and factor 2 (from 4) are both
	// open on multiples of 6, and on 3 (the link gate not yet in
	// effect); never on 4 (3∤4), 8 (3∤8), or 9 (2∤9).
	for _, c := range []struct {
		cyc  int
		want bool
	}{{0, true}, {3, true}, {4, false}, {6, true}, {8, false}, {9, false}, {12, true}} {
		if got := l.AllPeriodicOpen(c.cyc); got != c.want {
			t.Errorf("AllPeriodicOpen(%d) = %v, want %v", c.cyc, got, c.want)
		}
	}

	if f := plan.MaxFactor(); f != 3 {
		t.Errorf("MaxFactor = %d, want 3", f)
	}
	if f := (*Plan)(nil).MaxFactor(); f != 1 {
		t.Errorf("MaxFactor of a nil plan = %d, want 1", f)
	}

	// Descriptions: only effective faults, cells first, plan order.
	want := []string{"cell:1:slow=3", "cell:2:dead@5", "link:0:slow=2@4", "link:2:sever"}
	if got := l.Descriptions(); !reflect.DeepEqual(got, want) {
		t.Errorf("Descriptions = %v, want %v", got, want)
	}
}

func TestLowerNoopReturnsNil(t *testing.T) {
	var l Lowered
	if Lower(&l, nil, 3, 2) != nil {
		t.Error("Lower(nil) non-nil")
	}
	if Lower(&l, &Plan{}, 3, 2) != nil {
		t.Error("Lower(empty) non-nil")
	}
	if Lower(&l, &Plan{Cells: []CellFault{{Cell: 0, Factor: 1}}}, 3, 2) != nil {
		t.Error("Lower(factor-1) non-nil")
	}
}

// gates renders every gate of l over cells, links and cycles, and the
// descriptions, so two lowerings can be compared whole.
func gates(l *Lowered, cells, links, cycles int) string {
	var b strings.Builder
	for cyc := range cycles {
		for c := range cells {
			fmt.Fprint(&b, l.CellOpen(model.CellID(c), cyc), l.CellNextOpen(model.CellID(c), cyc), " ")
		}
		for lk := range links {
			fmt.Fprint(&b, l.LinkOpen(topology.LinkID(lk), cyc), l.LinkNextOpen(topology.LinkID(lk), cyc), " ")
		}
		fmt.Fprint(&b, l.AllPeriodicOpen(cyc), l.NextAllOpen(cyc, cycles), "\n")
	}
	fmt.Fprint(&b, l.Descriptions())
	return b.String()
}

// TestLowerReusesTables holds a Lowered that is lowered into again and
// again — the machine's pooled tables — to a fresh one per plan: on
// arrays that shrink and grow, on a plan changed in place after it was
// lowered, and on equal plans at different addresses. Stale gates,
// periodic entries or descriptions from an earlier plan fail it.
func TestLowerReusesTables(t *testing.T) {
	type step struct {
		plan         *Plan
		cells, links int
	}
	inPlace := &Plan{Cells: []CellFault{{Cell: 1, Factor: 3}}, Links: []LinkFault{{Link: 0, Severed: true, From: 2}}}
	steps := []step{
		{inPlace, 4, 3},
		{&Plan{Cells: []CellFault{{Cell: 0, Dead: true}, {Cell: 5, Factor: 2, From: 4}}}, 6, 1},
		{&Plan{Links: []LinkFault{{Link: 2, Factor: 4}}}, 2, 3},
		{inPlace, 4, 3},
	}
	var reused Lowered
	for i, s := range steps {
		if i == 3 {
			// The plan the first step lowered, changed in place: same
			// address, new entries, and one entry a no-op now.
			inPlace.Cells[0].Factor = 1
			inPlace.Links[0] = LinkFault{Link: 1, Factor: 5, From: 1}
		}
		for _, p := range []*Plan{s.plan, {Cells: slices.Clone(s.plan.Cells), Links: slices.Clone(s.plan.Links)}} {
			got := gates(Lower(&reused, p, s.cells, s.links), s.cells, s.links, 40)
			want := gates(Lower(new(Lowered), p, s.cells, s.links), s.cells, s.links, 40)
			if got != want {
				t.Fatalf("step %d (%s): reused tables differ from fresh ones:\n%s\nwant\n%s", i, p, got, want)
			}
		}
	}
}

// TestMaxFactorMatchesLowered holds Plan.MaxFactor, the stretch the
// engines' cycle bounds read before anything is lowered, to the
// largest periodic factor of the lowered tables: on every fault spec
// FuzzSpec seeds with that validates, and on random plans.
func TestMaxFactorMatchesLowered(t *testing.T) {
	lowered := func(p *Plan, cells, links int) int {
		f := 1
		if l := Lower(new(Lowered), p, cells, links); l != nil {
			for _, g := range l.periodic {
				f = max(f, g.factor)
			}
		}
		return f
	}
	for _, s := range append(slices.Clone(roundTripSpecs),
		" cell:1:slow=2 , link:0:sever ", "cell:1:slow=2@0", "link:0:sever@0", "cell:1:slow=2,link:1:slow=2") {
		p, err := ParseSpec(s)
		if err != nil || p.Validate(8, 8) != nil {
			t.Fatalf("seed %q does not give a valid plan: %v", s, err)
		}
		if got, want := p.MaxFactor(), lowered(p, 8, 8); got != want {
			t.Errorf("%q: MaxFactor %d, lowered tables %d", s, got, want)
		}
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for range 2000 {
		cells, links := 1+rng.IntN(6), rng.IntN(6)
		p := &Plan{}
		for _, c := range rng.Perm(cells)[:rng.IntN(cells+1)] {
			f := CellFault{Cell: model.CellID(c), Factor: rng.IntN(6), From: rng.IntN(3)}
			if f.Factor <= 1 && rng.IntN(2) == 0 {
				f.Dead = true
			}
			p.Cells = append(p.Cells, f)
		}
		for _, lk := range rng.Perm(links)[:rng.IntN(links+1)] {
			f := LinkFault{Link: topology.LinkID(lk), Factor: rng.IntN(6), From: rng.IntN(3)}
			if f.Factor <= 1 && rng.IntN(2) == 0 {
				f.Severed = true
			}
			p.Links = append(p.Links, f)
		}
		if err := p.Validate(cells, links); err != nil {
			t.Fatalf("generated plan %s: %v", p, err)
		}
		if got, want := p.MaxFactor(), lowered(p, cells, links); got != want {
			t.Fatalf("%s: MaxFactor %d, lowered tables %d", p, got, want)
		}
	}
}

// TestTypesAreStable pins the public field types the wire format and
// CLI build on.
func TestTypesAreStable(t *testing.T) {
	_ = CellFault{Cell: model.CellID(0), Factor: 2, Dead: false, From: 0}
	_ = LinkFault{Link: topology.LinkID(0), Factor: 2, Severed: false, From: 0}
}

// TestParseSpecEdgeCases pins the spec-grammar corners the fuzz
// corpus replays through the oracle's fault-spec-roundtrip invariant:
// @0 means "from the start" and canonicalizes to no suffix, negative
// effective-from cycles are rejected, and naming one cell or link
// twice — even with different effects — is a parse error rather than
// a silent last-write-wins.
func TestParseSpecEdgeCases(t *testing.T) {
	// @0 is accepted and equivalent to omitting the suffix.
	for _, s := range []string{"cell:1:slow=2@0", "link:0:sever@0"} {
		p, err := ParseSpec(s)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", s, err)
		}
		canon := p.String()
		if strings.Contains(canon, "@") {
			t.Errorf("ParseSpec(%q).String() = %q, want the @0 suffix dropped", s, canon)
		}
		again, err := ParseSpec(canon)
		if err != nil || !reflect.DeepEqual(p, again) {
			t.Errorf("canonical form %q did not round-trip: %v", canon, err)
		}
	}

	// Duplicate targets and negative effective-from cycles are parse
	// errors with messages naming the offending element.
	bad := []struct {
		spec, want string
	}{
		{"cell:1:slow=2,cell:1:slow=3", "cell 1 already has a fault"},
		{"cell:1:slow=2,cell:1:dead", "cell 1 already has a fault"},
		{"link:0:slow=2,link:0:sever", "link 0 already has a fault"},
		{"link:2:sever,cell:0:dead,link:2:slow=4", "link 2 already has a fault"},
		{"cell:1:slow=2@-3", "negative effective-from cycle"},
		// A terminal effect takes no value, not even an empty one
		// before @FROM.
		{"cell:1:dead=@5", "unknown effect"},
		{"link:0:sever=@3", "unknown effect"},
		{"link:0:sever=3", "unknown effect"},
		{"cell:1:slow=@5", "bad slowdown factor"},
	}
	for _, tc := range bad {
		_, err := ParseSpec(tc.spec)
		if err == nil {
			t.Errorf("ParseSpec(%q) accepted", tc.spec)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParseSpec(%q) error %q, want it to contain %q", tc.spec, err, tc.want)
		}
	}

	// The same cell and link index are distinct elements: no clash.
	if _, err := ParseSpec("cell:1:slow=2,link:1:slow=2"); err != nil {
		t.Errorf("cell and link sharing an index rejected: %v", err)
	}
}

// TestNextOpenAgreesWithStepping holds the closed-form next-open
// queries the engines' idle-cycle fast-forward jumps by to the
// definition they replace: stepping cycle by cycle until the gate (or
// every periodic gate) is open.
func TestNextOpenAgreesWithStepping(t *testing.T) {
	plan := &Plan{
		Cells: []CellFault{{Cell: 0, Factor: 7}, {Cell: 1, Factor: 13, From: 40}, {Cell: 2, Dead: true, From: 5}},
		Links: []LinkFault{{Link: 0, Factor: 10, From: 3}, {Link: 1, Severed: true}},
	}
	l := Lower(new(Lowered), plan, 4, 3)
	const horizon = 2000
	step := func(open func(int) bool, from int) int {
		for c := from; c < horizon; c++ {
			if open(c) {
				return c
			}
		}
		return Never
	}
	for cyc := 0; cyc < 200; cyc++ {
		for c := model.CellID(0); c < 4; c++ {
			want := step(func(x int) bool { return l.CellOpen(c, x) }, cyc)
			if got := l.CellNextOpen(c, cyc); got != want {
				t.Fatalf("CellNextOpen(%d, %d) = %d, want %d", c, cyc, got, want)
			}
		}
		for lk := topology.LinkID(0); lk < 3; lk++ {
			want := step(func(x int) bool { return l.LinkOpen(lk, x) }, cyc)
			if got := l.LinkNextOpen(lk, cyc); got != want {
				t.Fatalf("LinkNextOpen(%d, %d) = %d, want %d", lk, cyc, got, want)
			}
		}
		// 7, 10 and 13 are pairwise coprime: every gate in effect, the
		// first all-open cycle is a multiple of 910.
		for _, limit := range []int{cyc, cyc + 1, 69, 910, 911, horizon} {
			want := step(l.AllPeriodicOpen, cyc)
			if want > limit || limit < cyc {
				want = limit
			}
			if got := l.NextAllOpen(cyc, limit); got != want {
				t.Fatalf("NextAllOpen(%d, %d) = %d, want %d", cyc, limit, got, want)
			}
		}
	}
	// A bound at the top of the int range must not wrap the search.
	if got := l.NextAllOpen(Never-5, Never); got != Never {
		t.Fatalf("NextAllOpen near MaxInt = %d, want the limit", got)
	}
}
