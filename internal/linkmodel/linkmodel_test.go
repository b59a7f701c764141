package linkmodel

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"systolic/internal/topology"
)

// roundTripSpecs are canonical link-model specs; FuzzSpec seeds with
// them.
var roundTripSpecs = []string{
	"unit",
	"fixed,delay=1",
	"fixed,delay=3",
	"fixed,delay=2,credit=1",
	"fixed,delay=2,link:3:delay=5",
	"fixed,delay=1,link:0:delay=4,link:2:credit=1",
	"congestion,delay=1,threshold=2,max=4",
	"congestion,delay=2,threshold=1,max=3,credit=2",
}

func TestParseSpecRoundTrip(t *testing.T) {
	for _, spec := range roundTripSpecs {
		p, err := ParseSpec(spec)
		if err != nil {
			t.Fatalf("ParseSpec(%q): %v", spec, err)
		}
		if got := p.String(); got != spec {
			t.Errorf("ParseSpec(%q).String() = %q", spec, got)
		}
		q, err := ParseSpec(p.String())
		if err != nil {
			t.Fatalf("re-parse %q: %v", p.String(), err)
		}
		if q.String() != p.String() {
			t.Errorf("round-trip drift: %q -> %q", p.String(), q.String())
		}
	}
}

func TestParseSpecEmptyAndUnit(t *testing.T) {
	p, err := ParseSpec("")
	if err != nil || p != nil {
		t.Fatalf("ParseSpec(\"\") = %v, %v; want nil, nil", p, err)
	}
	u, err := ParseSpec("unit")
	if err != nil {
		t.Fatal(err)
	}
	if !u.IsUnit() {
		t.Error("unit plan is not IsUnit")
	}
	var l Lowered
	if Lower(&l, u, 4) != nil {
		t.Error("Lower(unit) != nil")
	}
	if Lower(&l, nil, 4) != nil {
		t.Error("Lower(nil) != nil")
	}
	// A fixed plan with unit parameters lowers to nil too.
	f, err := ParseSpec("fixed,delay=1")
	if err != nil {
		t.Fatal(err)
	}
	if Lower(&l, f, 4) != nil {
		t.Error("Lower(fixed,delay=1) != nil")
	}
}

func TestParseSpecErrors(t *testing.T) {
	cases := []struct {
		spec string
		want string
	}{
		{"bogus", "unknown model"},
		{"fixed,delay=2,delay=3", "duplicate parameter"},
		{"fixed,link:1:delay=2,link:1:delay=3", "duplicate delay for link 1"},
		{"fixed,threshold=2", "congestion model only"},
		{"congestion,link:0:delay=2", "fixed model only"},
		{"fixed,delay=x", "bad delay"},
		{"fixed,delay", "want key=value"},
		{"fixed,link:0:slow=2", "unknown link parameter"},
		{"congestion,warp=9", "unknown parameter"},
	}
	for _, c := range cases {
		_, err := ParseSpec(c.spec)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ParseSpec(%q) err = %v, want containing %q", c.spec, err, c.want)
		}
	}
}

// cpuTime is the CPU time f takes, user and system. Unlike the wall
// clock it does not run while other processes hold the cores. The heap
// is collected before f and the collector is off while f runs, so its
// background workers, whose CPU time depends on what earlier work left
// on the heap rather than on f, do not count.
func cpuTime(t testing.TB, f func()) time.Duration {
	var before, after syscall.Rusage
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &before); err != nil {
		t.Fatal(err)
	}
	f()
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &after); err != nil {
		t.Fatal(err)
	}
	return time.Duration(after.Utime.Nano() - before.Utime.Nano() + after.Stime.Nano() - before.Stime.Nano())
}

// TestParseSpecLinear: a spec off the wire with many per-link
// overrides parses in time linear in its items — each item finds its
// link's override without a scan of the ones before it. Four times the
// links may take at most ten times the CPU time (best of three).
func TestParseSpecLinear(t *testing.T) {
	elapsed := func(links int) time.Duration {
		var b strings.Builder
		b.WriteString("fixed")
		for i := range links {
			fmt.Fprintf(&b, ",link:%d:delay=2,link:%d:credit=1", i, i)
		}
		text := b.String()
		best := time.Duration(math.MaxInt64)
		for range 3 {
			var p *Plan
			var err error
			best = min(best, cpuTime(t, func() { p, err = ParseSpec(text) }))
			if err != nil || len(p.Overrides) != links {
				t.Fatalf("%d links: %v", links, err)
			}
		}
		return best
	}
	small, large := elapsed(25_000), elapsed(100_000)
	t.Logf("25k links: %v of CPU, 100k: %v (ratio %.1f)", small, large, float64(large)/float64(small))
	if large > 10*small {
		t.Errorf("100k links took %v of CPU, 25k %v: more than linear", large, small)
	}
}

func TestValidate(t *testing.T) {
	ok, err := ParseSpec("fixed,delay=2,link:3:delay=5")
	if err != nil {
		t.Fatal(err)
	}
	if err := ok.Validate(4); err != nil {
		t.Errorf("Validate(4): %v", err)
	}
	if err := ok.Validate(3); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Errorf("Validate(3) err = %v, want out of range", err)
	}
	dup := &Plan{Kind: Fixed, Overrides: []Override{{Link: 1, Delay: 2}, {Link: 1, Credit: 1}}}
	if err := dup.Validate(4); err == nil || !strings.Contains(err.Error(), "more than one override") {
		t.Errorf("duplicate override err = %v", err)
	}
	neg := &Plan{Kind: Fixed, Delay: -1}
	if err := neg.Validate(4); err == nil || !strings.Contains(err.Error(), "negative") {
		t.Errorf("negative delay err = %v", err)
	}
	huge := &Plan{Kind: Fixed, Delay: maxParam + 1}
	if err := huge.Validate(4); err == nil || !strings.Contains(err.Error(), "exceeds the maximum") {
		t.Errorf("huge delay err = %v", err)
	}
}

func TestLoweredBusy(t *testing.T) {
	p, err := ParseSpec(overrideSpec)
	if err != nil {
		t.Fatal(err)
	}
	l := Lower(new(Lowered), p, 4)
	if l == nil {
		t.Fatal("lowered to nil")
	}
	cases := []struct {
		link  topology.LinkID
		tally int32
		want  int
	}{
		{0, 1, 3},  // one word, one service of delay 3
		{0, 2, 3},  // within credit 2: still one service
		{0, 3, 6},  // two services
		{1, 1, 5},  // override delay
		{2, 4, 12}, // credit override 1: four services of delay 3
	}
	for _, c := range cases {
		if got := l.Busy(c.link, c.tally); got != c.want {
			t.Errorf("Busy(%d, %d) = %d, want %d", c.link, c.tally, got, c.want)
		}
	}
	if f := p.MaxFactor(4); f != 5 {
		t.Errorf("MaxFactor = %d, want 5", f)
	}
}

func TestLoweredCongestion(t *testing.T) {
	p, err := ParseSpec("congestion,delay=1,threshold=2,max=4")
	if err != nil {
		t.Fatal(err)
	}
	// Lowered into tables a fixed plan with overrides filled first, as
	// the machine's pooled tables may have been.
	var l Lowered
	over, err := ParseSpec(overrideSpec)
	if err != nil {
		t.Fatal(err)
	}
	Lower(&l, over, 4)
	if Lower(&l, p, 2) == nil {
		t.Fatal("lowered to nil")
	}
	cases := []struct {
		tally int32
		want  int
	}{
		{1, 1},  // under threshold: unit
		{2, 1},  // (2-1)/2 = 0 extra
		{3, 2},  // one extra cycle of backpressure
		{9, 5},  // (9-1)/2 = 4, at the cap
		{99, 5}, // capped
	}
	for _, c := range cases {
		if got := l.Busy(0, c.tally); got != c.want {
			t.Errorf("Busy(0, %d) = %d, want %d", c.tally, got, c.want)
		}
	}
	if f := p.MaxFactor(2); f != 5 {
		t.Errorf("MaxFactor = %d, want 5", f)
	}
}

// overrideSpec is a fixed plan with a delay override and a credit
// override; FuzzSpec seeds with it.
const overrideSpec = "fixed,delay=3,credit=2,link:1:delay=5,link:2:credit=1"

// TestMaxFactor holds Plan.MaxFactor, the stretch the engines' cycle
// bounds and verify.LinkBudgets read without lowering anything, to the
// lowered tables it stands for — the largest delay any link got, plus
// the congestion cap — on every link-model spec FuzzSpec seeds with, on
// fixed plans whose overrides cover every link (the base delay is then
// on none), and on random plans, each over topologies of 0 to 8 links.
func TestMaxFactor(t *testing.T) {
	lowered := func(p *Plan, links int) int {
		f := 1
		if l := Lower(new(Lowered), p, links); l != nil {
			for _, d := range l.delay {
				f = max(f, int(d)+int(l.maxExtra))
			}
		}
		return f
	}
	check := func(p *Plan, links int) {
		t.Helper()
		if err := p.Validate(links); err != nil {
			return
		}
		if got, want := p.MaxFactor(links), lowered(p, links); got != want {
			t.Fatalf("%s over %d links: MaxFactor %d, lowered tables %d", p, links, got, want)
		}
	}
	for _, s := range append(slices.Clone(roundTripSpecs), overrideSpec,
		"fixed,delay=9,link:0:delay=2,link:1:delay=3", "fixed,delay=9,link:0:delay=2,link:1:credit=3") {
		p, err := ParseSpec(s)
		if err != nil {
			t.Fatal(err)
		}
		for links := range 9 {
			check(p, links)
		}
	}
	if f := (&Plan{Kind: Fixed, Delay: 9, Overrides: []Override{{Link: 0, Delay: 2}, {Link: 1, Delay: 3}}}).MaxFactor(2); f != 3 {
		t.Errorf("every link overridden: MaxFactor = %d, want 3 (the base delay 9 is on no link)", f)
	}
	if f := CongestionPlan(1, 2, 3).MaxFactor(2); f != 4 {
		t.Errorf("congestion MaxFactor = %d, want 4", f)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for range 3000 {
		links := rng.IntN(6)
		p := &Plan{Kind: Kind(rng.IntN(3)), Delay: rng.IntN(5), Credit: rng.IntN(3) / 2,
			Threshold: rng.IntN(3), MaxExtra: rng.IntN(4)}
		if p.Kind == Fixed {
			for _, lk := range rng.Perm(links)[:rng.IntN(links+1)] {
				p.Overrides = append(p.Overrides, Override{Link: topology.LinkID(lk), Delay: rng.IntN(7), Credit: rng.IntN(2)})
			}
		}
		check(p, links)
	}
}
