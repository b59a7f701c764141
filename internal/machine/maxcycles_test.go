package machine

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"systolic/internal/linkmodel"
	"systolic/internal/model"
	"systolic/internal/topology"
)

// linearRelay builds a store-and-forward relay over a linear array of
// cells: each interior cell reads a word from its left neighbour and
// forwards it right, so every word crosses every link.
func linearRelay(t testing.TB, cells, words int) *model.Program {
	t.Helper()
	b := model.NewBuilder()
	ids := make([]model.CellID, cells)
	for i := range ids {
		ids[i] = b.AddCell(fmt.Sprintf("C%d", i))
	}
	msgs := make([]model.MessageID, cells-1)
	for i := range msgs {
		msgs[i] = b.DeclareMessage(fmt.Sprintf("M%d", i), ids[i], ids[i+1], words)
	}
	b.WriteN(ids[0], msgs[0], words)
	for i := 1; i+1 < cells; i++ {
		for w := 0; w < words; w++ {
			b.Read(ids[i], msgs[i-1])
			b.Write(ids[i], msgs[i])
		}
	}
	b.ReadN(ids[cells-1], msgs[len(msgs)-1], words)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestMaxCyclesForLinkFactor pins the derived-bound formula
// max(16·(words+1)·(hops+1)·L+4096, 2^14)·F: the link factor L scales
// the work term, the 2^14 floor applies after it, the fault factor F
// scales the floored bound, factors below 1 clamp to unit, and the
// overflow guard names the link slowdown.
func TestMaxCyclesForLinkFactor(t *testing.T) {
	cases := []struct {
		words, hops, link, fault, want int
	}{
		{10, 2, 1, 1, 1 << 14},                    // floor regime
		{10, 2, 4, 1, 1 << 14},                    // scaled, still under the floor
		{100, 10, 1, 1, 16*101*11 + 4096},         // above the floor, unit links
		{100, 10, 4, 1, 16*101*11*4 + 4096},       // latency-4: exactly ×4
		{100, 10, 0, 1, 16*101*11 + 4096},         // factor < 1 clamps to unit
		{10, 2, 1, 3, 3 << 14},                    // a slowdown scales the floor
		{100, 10, 4, 3, (16*101*11*4 + 4096) * 3}, // both factors
		{100, 10, 1, -2, 16*101*11 + 4096},        // fault factor < 1 clamps too
		{100, 10, 2, 5, (16*101*11*2 + 4096) * 5}, // F applies after the slack
	}
	for _, tc := range cases {
		got, err := maxCyclesFor(tc.words, tc.hops, tc.link, tc.fault)
		if err != nil {
			t.Errorf("maxCyclesFor(%d,%d,%d,%d): %v", tc.words, tc.hops, tc.link, tc.fault, err)
			continue
		}
		if got != tc.want {
			t.Errorf("maxCyclesFor(%d,%d,%d,%d) = %d, want %d", tc.words, tc.hops, tc.link, tc.fault, got, tc.want)
		}
	}
	// A factor that overflows the product is a typed ConfigError
	// naming the link slowdown, not a wrapped-around bound.
	_, err := maxCyclesFor(math.MaxInt/8, 4, 1<<20, 1)
	var ce *ConfigError
	if !errors.As(err, &ce) {
		t.Fatalf("overflowing factor: err = %v, want *ConfigError", err)
	}
	if !strings.Contains(ce.Reason, "link slowdown") {
		t.Errorf("overflow reason %q does not name the link slowdown", ce.Reason)
	}
}

// TestLinkLatencyDerivedBoundRegression is the satellite regression
// for the maxCyclesFor link-factor fix: a slow-link linear array that
// genuinely needs more cycles than the old unit-latency bound. The
// old derivation (no link factor) is simulated by pinning MaxCycles
// to its value — the run is then misreported as stuck, while the
// scaled derivation lets the same run complete.
//
// Note on magnitudes: the formula carries 16 cycles of slack per
// word·hop, so a latency-4 model alone can never outrun the old
// bound (a serialized run costs ~4 cycles per word·hop, a quarter of
// the slack). The misreport needs a latency larger than the slack —
// here a delay-264 credit-1 link against the 2^14 floor. The
// latency-4 linear array the issue names is covered below as the
// ×4-scaling case.
func TestLinkLatencyDerivedBoundRegression(t *testing.T) {
	m := mustCompile(t, chain(t, 64), topology.Linear(2))
	oldBound, err := maxCyclesFor(m.totalWords, m.totalHops, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if oldBound != 1<<14 {
		t.Fatalf("old bound = %d, want the 2^14 floor (fixture drifted)", oldBound)
	}

	// delay-264 credit-1: one word per 264 cycles, ~16900 total —
	// just past the old bound.
	const delay = 264
	opts := fcfs(1, 1)
	opts.LinkModel = linkmodel.FixedPlan(delay, 1)
	res, err := m.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("slow-link run under the scaled derived bound: %s at cycle %d", res.Outcome(), res.Cycles)
	}
	if res.Cycles <= oldBound {
		t.Fatalf("run finished at cycle %d, inside the old bound %d — fixture no longer exercises the regression", res.Cycles, oldBound)
	}
	newBound, err := maxCyclesFor(m.totalWords, m.totalHops, delay, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles > newBound {
		t.Fatalf("run needed %d cycles, beyond even the scaled bound %d", res.Cycles, newBound)
	}

	// The old derivation would have cut the run off at oldBound and
	// called it stuck.
	opts.MaxCycles = oldBound
	cut, err := m.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if cut.Completed {
		t.Fatalf("run pinned to the old bound %d completed in %d cycles — regression fixture is too fast", oldBound, cut.Cycles)
	}

	// The issue's latency-4 linear array: the derived bound scales by
	// exactly 4 and the retimed relay completes (later than unit).
	relay := mustCompile(t, linearRelay(t, 8, 128), topology.Linear(8))
	b1, err := maxCyclesFor(relay.totalWords, relay.totalHops, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	b4, err := maxCyclesFor(relay.totalWords, relay.totalHops, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want := (b1-4096)*4 + 4096; b4 != want {
		t.Fatalf("latency-4 bound = %d, want %d (×4 above the floor)", b4, want)
	}
	unit, err := relay.Run(fcfs(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	lat4opts := fcfs(1, 1)
	lat4opts.LinkModel = linkmodel.FixedPlan(4, 1)
	lat4, err := relay.Run(lat4opts)
	if err != nil {
		t.Fatal(err)
	}
	if !unit.Completed || !lat4.Completed {
		t.Fatalf("relay outcomes: unit %s, latency-4 %s", unit.Outcome(), lat4.Outcome())
	}
	if lat4.Cycles <= unit.Cycles {
		t.Fatalf("latency-4 relay did not stretch: unit %d cycles, latency-4 %d", unit.Cycles, lat4.Cycles)
	}
}
