package queue

import (
	"fmt"
	"math/rand"
	"testing"

	"systolic/internal/gen"
	"systolic/internal/model"
)

// TestPropertyFIFOUnderGeneratedInterleavings drives one Queue per
// message with the op interleavings of generated programs: each cell's
// code is replayed as a schedule where W(m) enqueues message m's next
// word and R(m) dequeues one (when ready). A plain-slice reference
// model runs alongside; the Queue must agree on every pop, order
// included, under arbitrary interleavings of enqueue and dequeue.
func TestPropertyFIFOUnderGeneratedInterleavings(t *testing.T) {
	for seed := int64(0); seed < 80; seed++ {
		sc, err := gen.Generate(seed, gen.Options{Interleave: 4})
		if err != nil {
			t.Fatal(err)
		}
		p := sc.Program
		// One queue and one reference FIFO per message; capacities
		// cycle through small values to exercise the full/backoff
		// paths.
		qs := make([]*Queue, p.NumMessages())
		ref := make([][]Word, p.NumMessages())
		produced := make([]int, p.NumMessages())
		// credits[m] counts words force-drained by a full writer before
		// the reader reached its R(m); those reads are already
		// satisfied.
		credits := make([]int, p.NumMessages())
		for m := range qs {
			qs[m] = newQueue(1+int(seed)%3, 0, 0)
		}
		// Replay every cell's schedule round-robin one op at a time so
		// enqueues and dequeues from different cells interleave the
		// way the simulator would interleave them.
		pcs := make([]int, p.NumCells())
		for remaining := p.TotalOps(); remaining > 0; {
			advanced := false
			for c := 0; c < p.NumCells(); c++ {
				if pcs[c] >= len(p.Code(model.CellID(c))) {
					continue
				}
				op := p.Code(model.CellID(c))[pcs[c]]
				m := int(op.Msg)
				if op.Kind == model.Write {
					w := Word(float64(m)*1e6 + float64(produced[m]))
					if !qs[m].CanAccept() {
						// Full: drain one word first so the schedule
						// always terminates; the displaced word
						// satisfies one future R(m).
						drain(t, qs[m], &ref[m], m)
						credits[m]++
					}
					if !qs[m].Push(w) {
						t.Fatalf("seed %d: push refused with CanAccept true", seed)
					}
					produced[m]++
					ref[m] = append(ref[m], w)
				} else if credits[m] > 0 {
					credits[m]--
				} else {
					if qs[m].Empty() {
						// Reader ahead of writer: skip this cell for
						// now; a later round supplies the word.
						continue
					}
					drain(t, qs[m], &ref[m], m)
				}
				pcs[c]++
				remaining--
				advanced = true
			}
			if !advanced {
				t.Fatalf("seed %d: schedule wedged at pcs=%v", seed, pcs)
			}
		}
		for m := range qs {
			for !qs[m].Empty() {
				drain(t, qs[m], &ref[m], m)
			}
			if len(ref[m]) != 0 {
				t.Fatalf("seed %d: message %d reference holds %d undelivered words", seed, m, len(ref[m]))
			}
		}
	}
}

// drain pops one word and checks it against the reference front.
func drain(t *testing.T, q *Queue, ref *[]Word, m int) {
	t.Helper()
	if !q.FrontReady() {
		t.Fatalf("message %d: queue not ready with %d buffered words", m, q.Len())
	}
	got := q.Pop()
	if len(*ref) == 0 {
		t.Fatalf("message %d: popped %v from an empty reference", m, got)
	}
	want := (*ref)[0]
	*ref = (*ref)[1:]
	if got != want {
		t.Fatalf("message %d: FIFO order broken: popped %v, want %v", m, got, want)
	}
}

// TestPropertyExtensionKeepsOrder: the §8 queue extension must delay
// pops, never reorder them — random push/pop interleavings with
// cooldowns ticked through.
func TestPropertyExtensionKeepsOrder(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q := newQueue(2, 1+rng.Intn(2), 1+rng.Intn(3))
		var ref []Word
		next := 0
		for step := 0; step < 500; step++ {
			q.Tick()
			if rng.Intn(2) == 0 && q.CanAccept() {
				w := Word(next)
				next++
				if !q.Push(w) {
					t.Fatalf("seed %d: push refused with CanAccept true", seed)
				}
				ref = append(ref, w)
			} else if q.FrontReady() {
				got := q.Pop()
				if got != ref[0] {
					t.Fatalf("seed %d: popped %v, want %v", seed, got, ref[0])
				}
				ref = ref[1:]
			}
		}
		for tick := 0; len(ref) > 0; tick++ {
			if tick > 1000 {
				t.Fatalf("seed %d: queue never became ready draining the tail (%d words left)", seed, len(ref))
			}
			q.Tick()
			if !q.FrontReady() {
				continue
			}
			got := q.Pop()
			if got != ref[0] {
				t.Fatalf("seed %d: tail popped %v, want %v", seed, got, ref[0])
			}
			ref = ref[1:]
		}
	}
}

// sliceModel is the queue the ring replaced: words in a plain slice,
// popped by shifting. It is the oracle for every observable of Queue.
type sliceModel struct {
	capacity, ext, extPenalty int
	buf                       []Word
	cooldown                  int
	stats                     Stats
}

func (m *sliceModel) init(capacity, ext, extPenalty int) {
	*m = sliceModel{capacity: capacity, ext: ext, extPenalty: extPenalty}
}

func (m *sliceModel) push(w Word) bool {
	if len(m.buf) >= m.capacity+m.ext {
		return false
	}
	m.buf = append(m.buf, w)
	m.stats.WordsPassed++
	m.stats.MaxOccupancy = max(m.stats.MaxOccupancy, len(m.buf))
	return true
}

func (m *sliceModel) pop() Word {
	w := m.buf[0]
	m.buf = m.buf[1:]
	if len(m.buf)+1 > m.capacity && m.ext > 0 {
		m.stats.ExtAccesses++
		m.cooldown = m.extPenalty
	}
	return w
}

func (m *sliceModel) reset() {
	m.buf, m.cooldown = nil, 0
	m.stats.Rebinds++
}

// agree compares every observable of q with the model.
func agree(t *testing.T, ctx string, q *Queue, m *sliceModel) {
	t.Helper()
	ready := len(m.buf) > 0 && m.cooldown == 0
	if q.Len() != len(m.buf) || q.Empty() != (len(m.buf) == 0) ||
		q.CanAccept() != (len(m.buf) < m.capacity+m.ext) ||
		q.FrontReady() != ready || q.Cooldown() != m.cooldown || q.Cooling() != (m.cooldown > 0) ||
		q.capacity != m.capacity || q.ext != m.ext || q.Stats() != m.stats {
		t.Fatalf("%s: queue {len %d ready %v cooldown %d stats %+v}, model {len %d ready %v cooldown %d stats %+v}",
			ctx, q.Len(), q.FrontReady(), q.Cooldown(), q.Stats(), len(m.buf), ready, m.cooldown, m.stats)
	}
	if len(m.buf) > 0 && q.buf[q.head] != m.buf[0] {
		t.Fatalf("%s: front %v, model %v", ctx, q.buf[q.head], m.buf[0])
	}
}

// TestPropertyRingMatchesSliceModel drives one Queue value through
// random Push/Pop/Tick/Reset/Init sequences beside the slice model. The
// capacities are small and change at every Init, in both directions, so
// the ring wraps constantly, runs on storage kept from a roomier Init,
// and grows from storage kept from a tighter one with words in flight;
// extension regions put the cooldown arming on wrapped pops too.
func TestPropertyRingMatchesSliceModel(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var q Queue
		var m sliceModel
		reinit := func() {
			capacity, ext, pen := 1+rng.Intn(4), rng.Intn(3), rng.Intn(3)
			q.Init(capacity, ext, pen)
			m.init(capacity, ext, pen)
		}
		reinit()
		next := Word(0)
		for step := 0; step < 2000; step++ {
			ctx := fmt.Sprintf("seed %d step %d", seed, step)
			switch r := rng.Intn(100); {
			case r < 45:
				next++
				if got, want := q.Push(next), m.push(next); got != want {
					t.Fatalf("%s: Push = %v, model %v", ctx, got, want)
				}
			case r < 85:
				if m.cooldown > 0 {
					q.Tick()
					m.cooldown--
				} else if len(m.buf) > 0 {
					if got, want := q.Pop(), m.pop(); got != want {
						t.Fatalf("%s: Pop = %v, model %v", ctx, got, want)
					}
				}
			case r < 93:
				n := 1 + rng.Intn(3)
				q.TickN(n)
				m.cooldown = max(m.cooldown-n, 0)
			case r < 97:
				q.Reset()
				m.reset()
			default:
				reinit()
			}
			agree(t, ctx, &q, &m)
		}
	}
}

// TestRingEdges pins the ring's corner cases one by one, each against
// the slice model: wrap-around at capacity, an extension access whose
// pop wraps, growth from storage kept by a tighter Init with a word in
// flight and while wrapped, and a shrink-then-grow on one value.
func TestRingEdges(t *testing.T) {
	var q Queue
	var m sliceModel
	step := 0
	setup := func(capacity, ext, pen int) { q.Init(capacity, ext, pen); m.init(capacity, ext, pen) }
	push := func(w Word) {
		t.Helper()
		step++
		if got, want := q.Push(w), m.push(w); got != want {
			t.Fatalf("step %d: Push(%v) = %v, model %v", step, w, got, want)
		}
		agree(t, fmt.Sprintf("step %d", step), &q, &m)
	}
	pop := func() {
		t.Helper()
		step++
		for m.cooldown > 0 {
			q.Tick()
			m.cooldown--
		}
		if got, want := q.Pop(), m.pop(); got != want {
			t.Fatalf("step %d: Pop = %v, model %v", step, got, want)
		}
		agree(t, fmt.Sprintf("step %d", step), &q, &m)
	}

	// Capacity 1: every push lands on the slot the pop just left.
	setup(1, 0, 0)
	for w := Word(1); w <= 3; w++ {
		push(w)
		push(-w) // refused: full
		pop()
	}
	// Grow 1 → 2 on the same value with a word in flight: the second
	// push finds the kept one-word storage full.
	setup(2, 0, 0)
	push(10)
	push(11)
	pop()
	push(12) // wraps onto the slot 10 left
	pop()
	pop()
	// Grow 2 → 4 while wrapped: the kept two-word storage is full with
	// its head on the second slot, and growth must unroll it in order.
	setup(4, 0, 0)
	push(13)
	push(14)
	pop()
	push(15) // wraps
	push(16) // grows
	push(17)
	push(18) // refused: full
	for range 4 {
		pop()
	}
	// Shrink to 2 on the four-word storage, then wrap around it: the
	// bound is the capacity, not the storage.
	setup(2, 0, 0)
	for w := Word(20); w < 30; w++ {
		push(w)
		push(w + 0.5)
		push(-1) // refused
		pop()
		pop()
	}
	// Grow past the kept storage with an extension: pops above the base
	// capacity are extension accesses and arm the cooldown wherever the
	// head sits in the ring.
	setup(3, 2, 2)
	for w := Word(30); w < 35; w++ {
		push(w)
	}
	for w := Word(35); w < 45; w++ {
		pop()
		push(w)
	}
	if q.Stats().ExtAccesses != 10 {
		t.Fatalf("%d extension accesses, want 10", q.Stats().ExtAccesses)
	}
	q.Reset()
	m.reset()
	agree(t, "after Reset", &q, &m)
	push(50)
	pop()
}

// TestRingSteadyStateAllocatesNothing: once the storage has reached a
// capacity, Init → fill → drain allocates nothing, at that capacity or
// below it.
func TestRingSteadyStateAllocatesNothing(t *testing.T) {
	var q Queue
	cycle := func(capacity int) {
		q.Init(capacity, 0, 0)
		for i := 0; i < capacity; i++ {
			q.Push(Word(i))
		}
		for i := 0; i < capacity; i++ {
			q.Pop()
		}
	}
	cycle(8) // warm: the one allocation of the queue's lifetime
	for _, capacity := range []int{8, 3} {
		if n := testing.AllocsPerRun(100, func() { cycle(capacity) }); n != 0 {
			t.Errorf("warm Init→Push×%d→Pop×%d cycle allocates %v times, want 0", capacity, capacity, n)
		}
	}
}
