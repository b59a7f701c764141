package machine

// Deterministic sharded execution: the machinery that lets one run's
// per-cycle phases fan out across a bounded worker gang while staying
// byte-identical to single-threaded execution.
//
// The model (see also exec.go's phase-by-phase commentary and the
// "Parallel execution" section of ARCHITECTURE.md):
//
//   - Work is partitioned into shards. Phases whose per-entry effects
//     are entirely message-local (queue requests, interior advances,
//     queue releases) split their ready set's key space into
//     contiguous id ranges, one per shard; bitset iteration is
//     ascending within a range, so range concatenation in shard order
//     is the full ascending scan. Phases where entries can contend
//     on a cell — receiver reads and sender writes both race for the
//     cell's one-op-per-cycle issue slot — are sharded by cell
//     ownership instead: shard s owns the contiguous cell range
//     [s·cells/W, (s+1)·cells/W) and processes exactly the messages
//     whose receiver (reads) or sender (writes) it owns, so every
//     issue-slot conflict is resolved inside one shard, in ascending
//     message order, exactly as the single-threaded scan resolves it.
//
//   - Per-message and per-cell state (program counters, issue flags,
//     queue contents, transport progress) is only ever touched by the
//     entry's owning shard within a phase, so shards never contend.
//     Everything that targets a shared structure — pending-request
//     lists, the armed-pool list, the transport/writer/moved/reqCheck
//     sets, timeline events, counters — is appended to the shard's
//     private sink and merged by the coordinator after the phase's
//     barrier, always in ascending shard order. Id-range chunks
//     concatenate back to the full ascending order, so the merged
//     effect sequence is independent of the worker count; the
//     order-insensitive sets are bitsets, whose iteration order is
//     ascending no matter what order members were merged in. The
//     bitsets themselves are never touched by workers mid-phase —
//     bits within one word are not independent memory locations —
//     which is exactly why membership changes ride the sinks.
//
//   - Phase barriers. A cycle's phases run strictly in sequence —
//     cooldown tick, request collection, pool arbitration, reads,
//     interior advances, rendezvous, writer commit, queue release —
//     with a full gang barrier (and the relevant sink merges) between
//     them, mirroring the single-threaded phase order. Pool
//     arbitration stays on the coordinator: policy instances are
//     stateful and their Grant calls must observe pools in ascending
//     order (see assign.Policy).
//
// Single-threaded execution is the 1-shard special case of the same
// phase structure, with one deliberate shortcut: in direct mode
// (workers == 1, see exec.direct) each note*/shard site applies its
// effect to the canonical structure in place and the merges are
// skipped entirely. The applied order equals the single-sink merge
// order, so the shortcut is invisible in the Result; the per-effect
// branches are two lines each, the cross-worker-count equivalence
// suites pin Workers=1 against Workers=N byte-for-byte, and the
// reference full-scan engine in internal/sim remains the independent
// oracle for all of it.

import "systolic/internal/model"

// maxWorkers caps the shard count; beyond this, coordination overhead
// is guaranteed to dominate any per-cycle work the model can generate.
const maxWorkers = 64

// parallelGrain is the minimum work-list length at which a phase is
// dispatched to the gang; below it the coordinator runs every shard
// inline (identical effects, no barrier cost). Mostly-idle cycles —
// the common case on large arrays, see BenchmarkLargeLinear — thus
// never pay for parallelism they cannot use. The value trades one
// gang barrier (microseconds: a channel handoff per worker each way)
// against the listed entries' work; entries cost tens to hundreds of
// nanoseconds each, so below ~48 the barrier could not pay for
// itself on any machine.
const parallelGrain = 48

// shardOf maps cell c of n to one of w contiguous, balanced shards:
// shard s owns cells [s·n/w, (s+1)·n/w). Requires 0 ≤ c < n and
// 1 ≤ w ≤ n.
//
//sysvet:hotpath
func shardOf(c, n, w int) int {
	return (c*w + w - 1) / n
}

// chunk returns shard s's position range [lo, hi) of an n-entry work
// list split into w contiguous chunks. Concatenating the chunks in
// shard order yields [0, n) exactly.
//
//sysvet:hotpath
func chunk(n, w, s int) (lo, hi int) {
	if w == 1 {
		// Direct mode's shape; skip the divisions, they show in sweeps.
		return 0, n
	}
	return s * n / w, (s + 1) * n / w
}

// pendReq is one deferred queue request: msg asking for a queue from
// pool.
type pendReq struct {
	pool int
	msg  model.MessageID
}

// sink is one shard's private buffer for the side effects that target
// shared structures. Workers only append; the coordinator drains every
// sink in ascending shard order after each phase barrier (mergeSinks),
// which is what makes the merged effect order independent of the
// worker count. Buffers are retained across cycles and runs.
type sink struct {
	pending   []pendReq
	armed     []int
	transport []model.MessageID
	writers   []model.MessageID
	// writerDrops holds the writer-set entries a write shard retired;
	// mergeSinks applies them before writers, so an entry retired and
	// re-entered in one phase stays a member.
	writerDrops []model.MessageID
	reqCheck    []model.MessageID
	moved       []model.MessageID
	// drops holds transport entries a read shard found fully drained;
	// the coordinator removes them from the transport bitset right
	// after the read barrier (not in mergeSinks — a message the write
	// phase of the same cycle re-buffers is re-inserted there, and the
	// insertion has to land after the drop).
	drops    []model.MessageID
	cooling  []int
	dirty    []int
	timeline []BindEvent
	// linkHits holds one entry per word that crossed a link on this
	// shard under a LinkModel; the coordinator folds them into the
	// per-link tallies. Tally increments commute, so the fixed
	// shard-order merge makes the folded counts — and the busy windows
	// derived from them — identical for every worker count.
	linkHits []int32

	remainingDelta int
	wordsMoved     int
	releases       int
	gated          int
	wake           int // this shard's share of exec.wake; noWake when empty
	anyEvent       bool

	// visits is this shard's tally of ready-set entries examined. It
	// lives here so that sharded phases never share a counter, is
	// zeroed per run rather than per cycle (reset leaves it alone), and
	// is summed by exec.visits.
	visits visitCounts
}

// visitCounts tallies the entries the phase loops examined: the
// clock-free measure of scheduler cost the work-proportionality tests
// hold against the work a run actually did. Like exec.executed it
// never reaches a Result.
type visitCounts struct {
	hops     int // route hops examined by advance, release and interior collect
	releases int // moved-set messages examined by releaseShard
	firstHop int // dirty cells examined by collectFirstHopShard
	setWords int // ready-set words, summary and member, read by the phase loops' scans
}

// visits sums the shards' tallies for the run so far.
func (e *exec) visits() visitCounts {
	var v visitCounts
	for i := range e.sinks {
		sv := &e.sinks[i].visits
		v.hops += sv.hops
		v.releases += sv.releases
		v.firstHop += sv.firstHop
		v.setWords += sv.setWords
	}
	return v
}

// reset empties a sink, keeping its backing arrays.
//
//sysvet:hotpath
func (sk *sink) reset() {
	sk.pending = sk.pending[:0]
	sk.armed = sk.armed[:0]
	sk.transport = sk.transport[:0]
	sk.writers = sk.writers[:0]
	sk.writerDrops = sk.writerDrops[:0]
	sk.reqCheck = sk.reqCheck[:0]
	sk.moved = sk.moved[:0]
	sk.drops = sk.drops[:0]
	sk.cooling = sk.cooling[:0]
	sk.dirty = sk.dirty[:0]
	sk.timeline = sk.timeline[:0]
	sk.linkHits = sk.linkHits[:0]
	sk.remainingDelta = 0
	sk.wordsMoved = 0
	sk.releases = 0
	sk.gated = 0
	sk.wake = noWake
	sk.anyEvent = false
}

// gang is a run-scoped pool of workers[1..n) plus the coordinator
// (shard 0, which executes inline). It is spawned lazily by the first
// fanout whose work list actually warrants a barrier — small machines
// with Workers > 1 never pay for goroutines they cannot use — and
// stopped when the run ends: success, deadlock, timeout,
// cancellation, or a Setup failure that aborts before the first
// cycle. Abandoning a pooled exec can therefore never leak
// goroutines.
type gang struct {
	n    int
	fn   func(shard int) // current phase; written only while workers are idle
	work chan int
	done chan any // nil = shard finished; non-nil = recovered panic value
}

func newGang(n int) *gang {
	g := &gang{n: n, work: make(chan int), done: make(chan any)}
	for w := 1; w < n; w++ {
		go func() {
			for s := range g.work {
				g.done <- g.runShard(s)
			}
		}()
	}
	return g
}

// runShard executes the current phase for one shard, converting a
// panic (a user Logic blowing up, typically) into a value instead of
// killing the process from a bare worker goroutine.
func (g *gang) runShard(s int) (rec any) {
	defer func() { rec = recover() }()
	g.fn(s)
	return nil
}

// run executes fn(s) for every shard s, shard 0 on the caller, and
// returns after all shards finish. The channel handoffs order the fn
// store before every worker's read and every worker's effects before
// the caller continues. A panic on any shard — coordinator included —
// is re-raised here only after every worker has reported back, so the
// caller sees the same recoverable panic single-threaded execution
// would produce and the gang stays consistent (workers idle, stop
// safe) even if the caller recovers it.
func (g *gang) run(fn func(int)) {
	g.fn = fn
	for s := 1; s < g.n; s++ {
		g.work <- s
	}
	rec := g.runShard(0)
	for s := 1; s < g.n; s++ {
		if r := <-g.done; rec == nil {
			rec = r
		}
	}
	if rec != nil {
		panic(rec)
	}
}

// stop terminates the workers. All of them are idle (run has
// returned, draining every done send), so close wakes each one
// exactly once.
func (g *gang) stop() {
	close(g.work)
}

// fanout runs fn over every shard: via the gang when the work list is
// long enough to amortize a barrier, inline otherwise. Both paths
// produce identical state — fn(s) touches only shard-s-owned state
// plus sinks[s], and merge order is fixed — so the dispatch choice is
// invisible in the Result.
//
//sysvet:hotpath
func (e *exec) fanout(n int, fn func(int)) {
	if n == 0 {
		return
	}
	if e.direct {
		fn(0)
		return
	}
	if e.workers > 1 && n >= parallelGrain {
		if e.gang == nil {
			e.gang = newGang(e.workers)
		}
		e.gang.run(fn)
		return
	}
	for s := 0; s < e.workers; s++ {
		fn(s)
	}
}

// mergeSinks drains every shard's sink in ascending shard order into
// the canonical structures. It is the cell-and-transfer phase's merge:
// the read/advance/write/rendezvous shards populate exactly the fields
// drained here (collect and release phases have their own slimmer
// merges, mergeCollect and mergeRelease). The message, cell, and pool
// sets are bitsets, so merge order cannot be observed — iteration at
// the consumption site is ascending by construction, and duplicate
// notes collapse in add.
//
//sysvet:hotpath
func (e *exec) mergeSinks() {
	for s := range e.sinks {
		sk := &e.sinks[s]
		for _, id := range sk.transport {
			e.transport.add(int(id))
		}
		for _, id := range sk.writerDrops {
			e.writers.drop(int(id))
		}
		for _, id := range sk.writers {
			e.writers.add(int(id))
		}
		for _, id := range sk.reqCheck {
			e.reqSet.add(int(id))
		}
		for _, id := range sk.moved {
			e.movedSet.add(int(id))
		}
		e.cooling = append(e.cooling, sk.cooling...)
		for _, c := range sk.dirty {
			e.dirty.add(c)
		}
		for _, l := range sk.linkHits {
			if e.lmTally[l] == 0 {
				e.lmDirty = append(e.lmDirty, l)
			}
			e.lmTally[l]++
		}
		e.remaining += sk.remainingDelta
		e.stats.WordsMoved += sk.wordsMoved
		e.stats.GatedOps += sk.gated
		e.wake = min(e.wake, sk.wake)
		if sk.anyEvent {
			e.moved = true
		}
		sk.reset()
	}
}

// mergeRelease drains the release phase's sink fields — armed pools,
// release counters, and unbind timeline events — in ascending shard
// order. releaseShard touches nothing else, and the sinks are clean on
// entry (mergeSinks fully reset them at the end of the transfer phase),
// so the partial reset here keeps every sink clean.
//
//sysvet:hotpath
func (e *exec) mergeRelease() {
	for s := range e.sinks {
		sk := &e.sinks[s]
		for _, p := range sk.armed {
			e.armed.add(p)
		}
		if len(sk.timeline) > 0 {
			e.res.Timeline = append(e.res.Timeline, sk.timeline...)
		}
		e.stats.Releases += sk.releases
		sk.armed = sk.armed[:0]
		sk.timeline = sk.timeline[:0]
		sk.releases = 0
	}
}
