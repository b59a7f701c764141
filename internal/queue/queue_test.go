package queue

import (
	"testing"
	"testing/quick"
)

// newQueue returns a queue set up by Init.
func newQueue(capacity, ext, extPenalty int) *Queue {
	q := &Queue{}
	q.Init(capacity, ext, extPenalty)
	return q
}

func TestFIFOOrder(t *testing.T) {
	q := newQueue(4, 0, 0)
	for i := 0; i < 4; i++ {
		if !q.Push(Word(i)) {
			t.Fatalf("push %d failed", i)
		}
	}
	if q.Push(99) {
		t.Fatal("push into full queue succeeded")
	}
	for i := 0; i < 4; i++ {
		if !q.FrontReady() {
			t.Fatalf("front not ready at %d", i)
		}
		if got := q.Pop(); got != Word(i) {
			t.Fatalf("pop %d = %v", i, got)
		}
	}
	if q.FrontReady() {
		t.Fatal("empty queue claims ready front")
	}
}

func TestCapacityZeroNeverAccepts(t *testing.T) {
	q := newQueue(0, 0, 0)
	if q.CanAccept() || q.Push(1) {
		t.Fatal("latch accepted a buffered word")
	}
	if q.capacity+q.ext != 0 {
		t.Fatal("latch capacity not zero")
	}
}

func TestNegativeArgsClamped(t *testing.T) {
	q := newQueue(-3, -1, -2)
	if q.capacity != 0 || q.ext != 0 {
		t.Fatal("negative capacities not clamped")
	}
}

func TestStatsMaxOccupancyAndWords(t *testing.T) {
	q := newQueue(3, 0, 0)
	q.Push(1)
	q.Push(2)
	q.Pop()
	q.Push(3)
	q.Push(4)
	s := q.Stats()
	if s.WordsPassed != 4 {
		t.Fatalf("WordsPassed=%d", s.WordsPassed)
	}
	if s.MaxOccupancy != 3 {
		t.Fatalf("MaxOccupancy=%d", s.MaxOccupancy)
	}
}

func TestExtensionAccountingAndPenalty(t *testing.T) {
	// Base 1, extension 2, penalty 2 cycles.
	q := newQueue(1, 2, 2)
	if q.capacity+q.ext != 3 {
		t.Fatal("total capacity wrong")
	}
	q.Push(10)
	q.Push(11)
	q.Push(12) // occupancy 3 > base 1: in extension
	if !q.FrontReady() {
		t.Fatal("front should be ready before first pop")
	}
	got := q.Pop() // popped while occupancy 3 > 1: extension access
	if got != 10 {
		t.Fatalf("pop = %v", got)
	}
	if q.Stats().ExtAccesses != 1 {
		t.Fatalf("ExtAccesses=%d", q.Stats().ExtAccesses)
	}
	// Penalty cooldown: front not ready for 2 ticks.
	if q.FrontReady() {
		t.Fatal("front ready during cooldown")
	}
	q.Tick()
	if q.FrontReady() {
		t.Fatal("front ready after one tick of two")
	}
	q.Tick()
	if !q.FrontReady() {
		t.Fatal("front not ready after cooldown")
	}
	q.Pop() // occupancy was 2 > base: another extension access
	if q.Stats().ExtAccesses != 2 {
		t.Fatalf("ExtAccesses=%d", q.Stats().ExtAccesses)
	}
	q.Tick()
	q.Tick()
	q.Pop() // occupancy was 1 ≤ base: normal access
	if q.Stats().ExtAccesses != 2 {
		t.Fatalf("final pop counted as extension: %d", q.Stats().ExtAccesses)
	}
}

func TestNoExtensionNoPenalty(t *testing.T) {
	q := newQueue(2, 0, 5) // penalty configured but no extension region
	q.Push(1)
	q.Push(2)
	q.Pop()
	if !q.FrontReady() {
		t.Fatal("penalty applied without extension")
	}
}

func TestResetCountsRebinds(t *testing.T) {
	q := newQueue(2, 0, 0)
	q.Push(1)
	q.Reset()
	if q.Len() != 0 || q.Stats().Rebinds != 1 {
		t.Fatalf("after reset: len=%d rebinds=%d", q.Len(), q.Stats().Rebinds)
	}
	q.Reset()
	if q.Stats().Rebinds != 2 {
		t.Fatal("second rebind not counted")
	}
}

// TestQuickFIFOProperty: any push/pop interleaving preserves order and
// never exceeds capacity.
func TestQuickFIFOProperty(t *testing.T) {
	f := func(ops []bool, capSel uint8) bool {
		capacity := int(capSel)%5 + 1
		q := newQueue(capacity, 0, 0)
		var modelQ []Word
		next := Word(0)
		for _, push := range ops {
			if push {
				ok := q.Push(next)
				wantOK := len(modelQ) < capacity
				if ok != wantOK {
					return false
				}
				if ok {
					modelQ = append(modelQ, next)
				}
				next++
			} else {
				if q.FrontReady() != (len(modelQ) > 0) {
					return false
				}
				if len(modelQ) > 0 {
					if q.Pop() != modelQ[0] {
						return false
					}
					modelQ = modelQ[1:]
				}
			}
			if q.Len() != len(modelQ) || q.Len() > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTickNMatchesRepeatedTick(t *testing.T) {
	for n := 0; n <= 7; n++ {
		a, b := newQueue(1, 2, 5), newQueue(1, 2, 5)
		for _, q := range []*Queue{a, b} {
			q.Push(1)
			q.Push(2)
			q.Pop() // extension access: arms the 5-cycle cooldown
		}
		if a.Cooldown() != 5 {
			t.Fatalf("Cooldown after extension pop = %d, want 5", a.Cooldown())
		}
		a.TickN(n)
		for i := 0; i < n; i++ {
			b.Tick()
		}
		if a.Cooldown() != b.Cooldown() || a.Cooling() != b.Cooling() || a.FrontReady() != b.FrontReady() {
			t.Fatalf("TickN(%d): cooldown %d, %d Ticks: cooldown %d", n, a.Cooldown(), n, b.Cooldown())
		}
	}
}

// TestProvisionedRing: a queue handed its ring uses it — words wrap
// around inside the caller's array and nowhere else — keeps it across
// Init, and falls back to growing its own when a later Init asks for
// more words than the ring holds.
func TestProvisionedRing(t *testing.T) {
	backing := make([]Word, 6)
	q := newQueue(2, 1, 0)
	q.Provision(backing[2:5:5])
	if q.RingLen() != 3 {
		t.Fatalf("RingLen = %d, want 3", q.RingLen())
	}
	next := Word(1)
	for round := 0; round < 5; round++ {
		for q.CanAccept() {
			q.Push(next)
			next++
		}
		if q.Len() != 3 || q.Pop() != next-3 || q.Pop() != next-2 {
			t.Fatalf("round %d: queue lost its order", round)
		}
	}
	if backing[0] != 0 || backing[1] != 0 || backing[5] != 0 {
		t.Errorf("words written outside the provisioned ring: %v", backing)
	}
	if backing[2] == 0 || backing[3] == 0 || backing[4] == 0 {
		t.Errorf("provisioned ring not used: %v", backing)
	}
	q.Init(5, 0, 0)
	if q.RingLen() != 3 {
		t.Fatalf("Init dropped the ring: RingLen = %d", q.RingLen())
	}
	for w := Word(1); w <= 5; w++ {
		if !q.Push(w) {
			t.Fatalf("push %v refused below capacity", w)
		}
	}
	for w := Word(1); w <= 5; w++ {
		if got := q.Pop(); got != w {
			t.Fatalf("popped %v, want %v", got, w)
		}
	}
	if q.RingLen() != 5 {
		t.Errorf("RingLen = %d after outgrowing the ring, want 5", q.RingLen())
	}
}
