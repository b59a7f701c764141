package crossoff

import (
	"math"
	"runtime"
	"strconv"
	"testing"
	"unsafe"

	"systolic/internal/model"
)

// sortNetwork is the shape of the pipelined sorting network the analysis
// gates scale: rounds of compare-exchange between neighbouring cells —
// two one-word messages a pair — then, with collect, one message per
// cell to the host, so cells, messages and ops all grow with width.
func sortNetwork(t testing.TB, width, rounds int, collect bool) *model.Program {
	t.Helper()
	b := model.NewBuilder()
	host := b.AddHost("Host")
	cells := b.AddCells("C", width)
	for r := 0; r < rounds; r++ {
		for i := r % 2; i+1 < width; i += 2 {
			left, right := cells[i], cells[i+1]
			at := strconv.Itoa(r) + "." + strconv.Itoa(i)
			e := b.DeclareMessage("E"+at, left, right, 1)
			f := b.DeclareMessage("F"+at, right, left, 1)
			b.Write(left, e).Read(left, f)
			b.Read(right, e).Write(right, f)
		}
	}
	for i := 0; collect && i < width; i++ {
		v := b.DeclareMessage("V"+strconv.Itoa(i), cells[i], host, 1)
		b.Write(cells[i], v).Read(host, v)
	}
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestTrackerUpdatesLinearInOps is the clock-free gate on the pass's
// bookkeeping: keeping the set of executable pairs up to date must cost
// candidacy checks in proportion to the ops crossed, whatever the width
// or a cell's degree. Admission tries a completion only at the first op
// on each message in a window that is not live: under the strict rules
// once per cell at the start and at most at the two new fronts per
// pair, ops + cells in all; under lookahead 2·ops + cells bounds it,
// on the sorting network and on the fan-out hub, whose window holds the
// current message's writes and whose degree is the message count. A
// tracker that re-examines a cell's every message per pair checks
// degree × ops of them, and one that rescans every message per pair
// width × ops.
func TestTrackerUpdatesLinearInOps(t *testing.T) {
	strict := func(ops, cells int) int { return ops + cells }
	lookahead := func(ops, cells int) int { return 2*ops + cells }
	budget := func(n int) Options { return Options{Lookahead: true, Budget: UniformBudget(n)} }
	for _, tc := range []struct {
		name  string
		p     *model.Program
		opts  Options
		bound func(ops, cells int) int
	}{
		{"strict, width 4000", sortNetwork(t, 4000, 4, true), Options{}, strict},
		{"strict, width 16000", sortNetwork(t, 16000, 4, true), Options{}, strict},
		{"lookahead, width 4000", sortNetwork(t, 4000, 4, false), budget(2), lookahead},
		{"lookahead, width 16000", sortNetwork(t, 16000, 4, false), budget(2), lookahead},
		{"lookahead, fan-out 40", fanOut(t, 40, 4), budget(1), lookahead},
	} {
		s, _ := cross(tc.p, tc.opts, nil)
		if s.left != 0 {
			t.Fatalf("%s: %d ops left uncrossed", tc.name, s.left)
		}
		ops, cells := tc.p.TotalOps(), tc.p.NumCells()
		t.Logf("%s: %d candidacy checks for %d ops, %d cells (%.2f per op)", tc.name, s.updates, ops, cells, float64(s.updates)/float64(ops))
		if bound := tc.bound(ops, cells); s.updates > bound {
			t.Errorf("%s: %d candidacy checks for %d ops and %d cells, want ≤ %d", tc.name, s.updates, ops, cells, bound)
		}
	}
}

// fanOut is a hub that writes words words to each of msgs receivers,
// one message after the other. Under lookahead with a budget below
// words, the probe for every message but the current one (and, on its
// last word, the next) skips more writes of the current message than
// rule R2 allows, so the hub's window ends inside the current message.
func fanOut(t testing.TB, msgs, words int) *model.Program {
	t.Helper()
	b := model.NewBuilder()
	hub := b.AddCell("Hub")
	for i := 0; i < msgs; i++ {
		c := b.AddCell("C" + strconv.Itoa(i))
		m := b.DeclareMessage("M"+strconv.Itoa(i), hub, c, words)
		b.WriteN(hub, m, words).ReadN(c, m, words)
	}
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestAllocGateFailedProbes: locate records skipped writes in the
// pass's one skip buffer, a candidate keeps none of them, and the
// picked pair's skips are located again into the same buffer, so a
// lookahead Classify over a hub whose messages mostly cannot be
// located allocates its fixed tables and the buffer's growth — 10, at
// 20 or 40 messages — not a list per failed locate or per pair that
// carries skips.
func TestAllocGateFailedProbes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const words = 4
	for _, msgs := range []int{20, 40} {
		p := fanOut(t, msgs, words)
		opts := Options{Lookahead: true, Budget: UniformBudget(1)}
		s, _ := cross(p, opts, nil)
		if s.left != 0 {
			t.Fatalf("%d messages: %d ops left uncrossed", msgs, s.left)
		}
		allocs := testing.AllocsPerRun(5, func() { Classify(p, opts) })
		t.Logf("%d messages: %d candidacy checks, %v allocations", msgs, s.updates, allocs)
		if allocs > 16 {
			t.Errorf("%d messages: %v allocations for %d candidacy checks, budget 16 whatever the message count", msgs, allocs, s.updates)
		}
	}
}

// allocated is the heap bytes f allocates, the least of three runs:
// MemStats counts the whole process's allocations, so a run can also
// count bytes some other goroutine allocated meanwhile, never fewer
// than f's own.
func allocated(f func()) uint64 {
	least := uint64(math.MaxUint64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestClassifyKeepsNoOrder: Classify answers one bool, so it must not
// materialise what Run reports — against a Run of the same program it
// saves at least the order slice, one Pair per pair crossed.
func TestClassifyKeepsNoOrder(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	p := sortNetwork(t, 4000, 4, true)
	run := allocated(func() { Run(p, Options{}) })
	classify := allocated(func() {
		if !Classify(p, Options{}) {
			t.Fatal("sorting network rejected")
		}
	})
	order := uint64(p.TotalOps()/2) * uint64(unsafe.Sizeof(Pair{}))
	t.Logf("Run allocates %d bytes, Classify %d; the order is %d", run, classify, order)
	if classify+order > run {
		t.Errorf("Classify allocates %d bytes against Run's %d: less than the order's %d apart", classify, run, order)
	}
}

// TestStrictPassAllocatesNoOpTable: under the strict rules the cursors
// are the whole crossed state, so a strict Classify allocates per cell
// and per message, never per op — on a 16-cell pipeline the same bytes
// at 4096 words a message as at 64.
func TestStrictPassAllocatesNoOpTable(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const runs = 8
	bytes := map[int]uint64{}
	for _, words := range []int{64, 4096} {
		p := longPipeline(t, 16, words)
		bytes[words] = allocated(func() {
			for range runs {
				if !Classify(p, Options{}) {
					t.Fatal("pipeline rejected")
				}
			}
		}) / runs
		t.Logf("%d words: %d ops, %d bytes per Classify", words, p.TotalOps(), bytes[words])
	}
	if bytes[4096] > bytes[64]+64 {
		t.Errorf("strict Classify allocates %d bytes at 4096 words, %d at 64: it grows with the op count", bytes[4096], bytes[64])
	}
}
