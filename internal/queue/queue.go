// Package queue implements the word FIFOs that sit between adjacent
// cells (§2.3), including the paper's two buffering regimes:
//
//   - capacity 0: a latch with "no buffering capability" (§3.2) — a
//     word can only pass through in a rendezvous, never park;
//   - capacity c ≥ 1: a FIFO able to buffer c words (§8), optionally
//     extended into the receiving cell's local memory (the iWarp
//     "queue extension", §8.1) at the price of a per-access latency
//     penalty.
//
// A Queue stores its words in a ring: Push and Pop are O(1) and move no
// other word. The ring's storage is handed over by the queue's owner
// (Provision) or grows lazily — the first Push that finds it full while
// smaller than capacity + extension allocates the full size at once —
// and Init keeps it, whatever the new capacity, so a queue that is
// reinitialized run after run (the simulator's pooled
// state, with the capacity varying per run) allocates at most when a
// run actually buffers more words than any run before it.
package queue

// Word is the unit of transfer. Real systolic machines move fixed-size
// machine words; float64 covers every workload in this repository
// (signal processing and integer sorting alike).
type Word float64

// Stats aggregates a queue's lifetime counters.
type Stats struct {
	// MaxOccupancy is the largest number of buffered words observed.
	MaxOccupancy int
	// WordsPassed counts words that entered the queue.
	WordsPassed int
	// ExtAccesses counts pops served from the extension region (words
	// buffered beyond the base capacity).
	ExtAccesses int
	// Rebinds counts how many times the queue was reassigned to a new
	// message.
	Rebinds int
}

// Queue is a bounded FIFO of words with an optional extension region.
// The zero value is unusable; set it up with Init.
type Queue struct {
	capacity   int // base hardware capacity; 0 = pure latch
	ext        int // extension capacity beyond base (0 = none)
	extPenalty int // extra ready-delay per pop while extension in use

	// buf is the ring's storage, all of it addressable (len == cap);
	// the n buffered words sit at head, head+1, … modulo len(buf).
	// len(buf) may be smaller than capacity+ext (not grown yet) or
	// larger (kept from a roomier Init).
	buf      []Word
	head, n  int32
	cooldown int // cycles before the front word becomes available
	stats    Stats
}

// Init (re)initializes a queue in place with the given base capacity,
// extension capacity and extension access penalty (cycles added before
// a pop when the occupancy exceeds the base capacity), keeping the
// ring's storage so pooled simulator state can be reused across runs
// without reallocating. Negative arguments are treated as zero.
func (q *Queue) Init(capacity, ext, extPenalty int) {
	if capacity < 0 {
		capacity = 0
	}
	if ext < 0 {
		ext = 0
	}
	if extPenalty < 0 {
		extPenalty = 0
	}
	q.capacity = capacity
	q.ext = ext
	q.extPenalty = extPenalty
	q.head, q.n = 0, 0
	q.cooldown = 0
	q.stats = Stats{}
}

// RingLen returns how many words the ring's storage holds; Push
// allocates only to go beyond it.
func (q *Queue) RingLen() int { return len(q.buf) }

// Provision replaces the storage of an empty queue's ring.
func (q *Queue) Provision(ring []Word) { q.buf, q.head = ring, 0 }

// Len returns the number of buffered words.
func (q *Queue) Len() int { return int(q.n) }

// Empty reports whether no words are buffered.
func (q *Queue) Empty() bool { return q.n == 0 }

// CanAccept reports whether a Push would succeed. A capacity-0 latch
// can never hold a word across cycles, so it only "accepts" via the
// simulator's rendezvous path, never via Push.
func (q *Queue) CanAccept() bool {
	return int(q.n) < q.capacity+q.ext
}

// Push appends a word; it reports false (and buffers nothing) if the
// queue is full.
func (q *Queue) Push(w Word) bool {
	if !q.CanAccept() {
		return false
	}
	if int(q.n) == len(q.buf) {
		// The ring is physically full but below capacity: grow straight
		// to the full capacity — one allocation per queue lifetime
		// instead of a doubling chain, and a reused queue (Init keeps the
		// storage) never grows again — unrolling the buffered words to
		// the front of the new storage.
		nb := make([]Word, q.capacity+q.ext)
		k := copy(nb, q.buf[q.head:])
		copy(nb[k:], q.buf[:q.head])
		q.buf, q.head = nb, 0
	}
	i := int(q.head) + int(q.n)
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	q.buf[i] = w
	q.n++
	q.stats.WordsPassed++
	if int(q.n) > q.stats.MaxOccupancy {
		q.stats.MaxOccupancy = int(q.n)
	}
	return true
}

// FrontReady reports whether the front word may be popped this cycle.
// It is false when the queue is empty or when an extension-access
// cooldown is still running.
func (q *Queue) FrontReady() bool {
	return q.n > 0 && q.cooldown == 0
}

// Pop removes and returns the front word. It must only be called when
// FrontReady. Popping while the occupancy exceeds the base capacity
// counts as an extension access and arms the penalty cooldown.
func (q *Queue) Pop() Word {
	w := q.buf[q.head]
	if q.head++; int(q.head) == len(q.buf) {
		q.head = 0
	}
	q.n--
	if int(q.n)+1 > q.capacity && q.ext > 0 {
		q.stats.ExtAccesses++
		q.cooldown = q.extPenalty
	}
	return w
}

// Tick advances per-cycle state (cooldowns). Call once per simulated
// cycle.
func (q *Queue) Tick() {
	if q.cooldown > 0 {
		q.cooldown--
	}
}

// TickN is n calls to Tick: the scheduler's idle-cycle fast-forward
// uses it to carry cooldowns across a window of skipped cycles.
func (q *Queue) TickN(n int) {
	q.cooldown = max(q.cooldown-n, 0)
}

// Cooling reports whether an extension-access cooldown is still
// running: the queue is not stuck, it is waiting out the penalty. The
// simulator's deadlock detector must treat this as pending progress.
func (q *Queue) Cooling() bool { return q.cooldown > 0 }

// Cooldown returns the number of Ticks left before the front word
// becomes available again; 0 when no cooldown is running.
func (q *Queue) Cooldown() int { return q.cooldown }

// Reset empties the queue for reassignment to a new message ("a queue
// … can be assigned to another message only after the last word in the
// current message has passed", §2.3 — the simulator only resets empty
// queues; Reset tolerates leftovers for unit tests).
func (q *Queue) Reset() {
	q.head, q.n = 0, 0
	q.cooldown = 0
	q.stats.Rebinds++
}

// Stats returns a copy of the lifetime counters.
func (q *Queue) Stats() Stats { return q.stats }
