package machine

import (
	"math/bits"
	"strconv"

	"systolic/internal/assign"
	"systolic/internal/fault"
	"systolic/internal/linkmodel"
	"systolic/internal/model"
	"systolic/internal/queue"
	"systolic/internal/topology"
)

// This file is the ready-set scheduler: the per-cycle loop that
// replaces the reference engine's full scan over every cell, queue,
// and message with event-driven wake lists. The invariant it lives
// by is *exact equivalence* — same grants, same transfers, same
// pending-list orders, same cycle counts, same deadlock reports as
// the reference loop in internal/refsim — achieved by revisiting, each
// cycle, precisely the entities whose observable state an event could
// have changed since their last visit:
//
//   - cells: a cell's front op only changes when the cell issues, and
//     only a front op that is a W on a message still to ask for its
//     first hop has a request to register, so first-hop requests are
//     re-examined only for cells that issued onto such a W ("dirty
//     cells", processed in cell-id order — the same relative order as
//     the reference full scan, which skips the others as no-ops);
//   - reads and interior advances visit only messages with words
//     buffered on their route (the "transport" set: written > read);
//   - sender writes and capacity-0 rendezvous visit only messages
//     whose sender is parked at W(msg) with the first-hop queue bound
//     (the "writer" set: entered through the grant and pc-advance
//     hooks, left when the write phase finds the sender moved on);
//   - interior queue requests re-check only messages whose header
//     entered a new hop since the last collect (the "reqSet");
//   - queue releases re-check only messages whose last word departed
//     a hop this cycle (the "movedSet") — a queue is releasable
//     exactly then;
//   - pools: Grant is re-invoked only when a pool's free count or
//     pending list changed since its previous invocation ("armed
//     pools", visited in ascending pool order). Policies are pure
//     functions of (free, pending, own grant history) — see the
//     assign.Policy contract — so skipped invocations are exactly the
//     ones that could neither grant nor mutate policy state;
//   - queues: cooldown ticks touch only queues with an armed
//     extension penalty ("cooling list");
//   - hops: within a visited message, the phases look only at the
//     occupied-hop window (msgState.tail, msgState.head) — advances
//     at head down to tail, a release at tail, a new request at
//     head+1 — never at the whole route;
//   - the one-op-per-cycle issue slot is a stamp (issued[c] == now+1)
//     that goes stale by itself: nothing is listed or cleared per
//     cycle.
//
// Every ready set is a word-packed bitset with a summary level
// (bitset.go). A phase walks one word by word — bitset.scan finds the
// next non-empty word through the summary, the phase consumes a copy of
// it in a register with TrailingZeros64 and word &= word-1 — so a walk
// costs its members, not the set's capacity, and visits them in
// ascending id order by construction, matching the reference engine's
// message-order scans with no per-cycle sorting; set membership is a
// superset of the entries the reference scan could act on, so skipped
// entries are exactly its no-ops. The cells' programs are one packed
// stream of 4-byte ops (machine.go's packedOp), indexed directly by
// the program counters: fetching a front op, which every issuing cell
// does every cycle, is one load from a stream a quarter the size of
// []model.Op.
//
// One run is one goroutine: a phase applies each effect to the set,
// list or counter it targets at the moment it happens (the note*
// helpers), and the order those effects land in is part of the
// equivalence — see the comment at each helper for why applying it in
// place is safe against the walk in progress.
//
// Blocked-cycle accounting is derived in closed form at the end of a
// run (per cell: cycles elapsed while unfinished minus ops issued)
// instead of a per-cycle scan; the result is bit-identical to the
// reference engine's counter.
//
// Host time follows events, not simulated cycles. The ready sets make
// an empty cycle cheap; the idle-cycle fast-forward makes a run of
// them free. A cycle with no event leaves every ready set empty, so it
// is a fixpoint of everything but time, and only three predicates
// depend on time: a link's busy window (lmNextFree), a periodic fault
// gate, an extension-penalty cooldown. The gate sites that test them
// fold the cycle at which each can flip into exec.wake (noteWake,
// noteGated), and after a no-event cycle that is not a deadlock the
// loop jumps there (fastForward) instead of stepping, adding the
// skipped cycles' gated-op counts and cooldown ticks in bulk. Cycle
// counts, deadlock cycles and every other Result byte are those of
// the stepping loop; the reference engine in internal/refsim still steps
// and stays the oracle for it.

// queueInst is one physical queue in a link's pool.
type queueInst struct {
	link topology.LinkID // real link, for reporting
	idx  int             // queue index within the link, for reporting
	slot int             // index in exec.queues, for the cooling list
	q    queue.Queue

	bound   bool
	msg     model.MessageID
	hop     int // index into the bound message's route
	cooling bool
}

// msgState tracks one message's transport progress. The per-hop
// slices are windows into the exec's flat arenas.
//
// tail and head bound the occupied-hop window, the only hops a
// per-cycle phase has to look at. Words cross a route in order, so hop
// i+1 never has more departures than hop i: the released hops (all
// words departed, queue handed back) are a prefix [0, tail), every
// buffered word sits in a hop of [tail, head], and the hops beyond head
// hold nothing yet — bound early by a reserving policy or not at all.
// Every hop of the window is bound (a word entered it and it is not
// released), and the header, buffered at head, can ask for hop head+1
// only.
type msgState struct {
	queues    []*queueInst // per hop; nil until granted
	granted   []bool
	requested []bool
	departed  []int // words that have left hop i (last hop: read by receiver)
	written   int   // words pushed by the sender
	read      int   // words consumed by the receiver
	tail      int32 // hops released so far
	head      int32 // furthest hop a word has entered; -1 before the first write
}

// exec holds all mutable state of one run. Everything that does not
// escape into the Result lives in the process-wide pool (machine.go's
// execs) between runs and is reused by the next run of any machine.
type exec struct {
	m              *Machine
	logic          CellLogic
	policy         assign.Policy
	flavor         int // 0 shared pools, 1 directional
	capacity       int
	queuesPerLink  int
	recordTimeline bool

	numPools int
	queues   []queueInst         // pool p occupies [p*Q : (p+1)*Q]
	pending  [][]model.MessageID // per pool, outstanding requests
	// pendingBuf backs the pending lists: a pool's segment has room for
	// its whole competing set, which its outstanding requests are among.
	pendingBuf []model.MessageID

	msgs     []msgState
	hopQ     []*queueInst // flat backing for msgState.queues
	hopFlags []bool       // flat backing for granted + requested
	hopInts  []int        // flat backing for departed

	// pc[c] is cell c's program counter as an index into the machine's
	// flat op stream: it starts at opOff[c] and the cell is done at
	// opOff[c+1], so fetching the front op is one load off the stream.
	pc []int32
	// issued[c] is the stamp now+1 of the cycle cell c last issued in
	// (0 = never): a cell issues at most one op per cycle, and a stamp
	// goes stale by itself, so nothing is cleared between cycles.
	issued     []int
	finishedAt []int // per cell: cycle of its final issue
	remaining  int   // cells with ops left

	// The ready sets.

	// dirty holds the cells whose pc advanced, since the last collect,
	// onto a W of a message that has not asked for its first hop yet.
	dirty bitset
	// transport holds the messages with words buffered somewhere on
	// their route (written > read): the only messages reads and
	// interior advances can act on. The read phase drops an entry it
	// finds drained, so the advance phase walks the post-drop set.
	transport bitset
	// writers holds the messages whose sender is parked at W(msg)
	// with the first-hop queue bound: the only candidates for sender
	// writes and capacity-0 rendezvous. Entered by the grant and
	// pc-advance hooks, left when the write phase finds the sender has
	// moved on (dropWriter); writerSnap snapshots it each cycle so
	// mid-cycle insertions target the real set.
	writers    bitset
	writerSnap bitset
	// reqSet holds the messages whose header entered a new hop since
	// the last collect: the only candidates for new interior-hop queue
	// requests.
	reqSet bitset
	// movedSet holds the messages whose last word departed a hop this
	// cycle: the only candidates for queue release.
	movedSet bitset
	// armed holds the pools to visit next grantPhase. The grant phase
	// swaps it with armedScratch so pools re-armed while granting land
	// in the following visit's set, never the one being iterated.
	armed        bitset
	armedScratch bitset

	cooling []int // queue slots with a possibly-armed cooldown

	// reuse marks an exec borrowed by a batch Exec (see batch.go):
	// buffers that normally escape into the Result — received, the
	// arena, blocked counts, queue stats, the deadlock report — are
	// retained and recycled across runs instead of freshly allocated,
	// because the batch contract says a Result is only valid until the
	// next Run or Release on the same Exec. Machine.Run borrows with
	// reuse false: its Results outlive the exec. Each borrow sets it.
	reuse        bool
	blockedBuf   []int
	qstatBuf     []QueueStat
	cellBlockBuf []CellBlock

	received [][]Word // escapes into Result; fresh per run unless reuse
	arena    []Word   // backing store for all received words; fresh per run unless reuse

	ctx assign.Context // per-run policy context; fields are shared read-only views

	// faults holds the run's lowered fault tables; nil on fault-free
	// runs, so every hot-path gate is a single pointer test. The
	// tables are immutable. Gates
	// sit at the four operation-issue sites (reads, interior advances,
	// sender writes, rendezvous), each checked *after* every fault-free
	// readiness criterion, so the gated-op count — and therefore every
	// downstream byte — matches the reference engine's full scan.
	faults *fault.Lowered

	// lm holds the run's lowered link-timing tables; nil under unit
	// latency, so every hot-path gate is a single pointer test.
	// Occupancy state: lmNextFree[l] is the first cycle link l is free
	// again (words cross only when now ≥ lmNextFree[l]); lmTally[l]
	// counts the words that crossed l this cycle; lmDirty lists the
	// links with a non-zero tally; lmBusyMax is the largest nextFree
	// ever set, so a no-event cycle at now ≥ lmBusyMax cannot be
	// waiting out a busy window. Gates sit immediately before the
	// fault link gates at the three link-crossing sites (interior
	// advances, sender writes, rendezvous) and are pure reads during a
	// phase: the tallies are folded into nextFree only at end of cycle
	// (lmEndCycle), so a window opened by this cycle's traffic gates
	// nothing before the next. A busy-link stall is timing, not
	// degradation: it does not count toward GatedOps.
	lm         *linkmodel.Lowered
	lmNextFree []int
	lmTally    []int32
	lmDirty    []int32
	lmBusyMax  int

	hasInterior bool // any route longer than one hop
	cancel      <-chan struct{}
	cancelled   bool

	res   Result
	stats Stats
	now   int
	moved bool // any event this cycle
	// wake is the earliest cycle at which a time-dependent predicate
	// that held a candidate back this cycle can flip (noWake when none
	// did); reset every cycle, folded at the gate sites, and consumed
	// by fastForward after a no-event cycle. executed counts the cycles
	// the loop actually ran — res.Cycles minus the fast-forwarded ones —
	// for the in-package tests and benchmarks; it never reaches Result.
	// visits is zeroed per run, like executed.
	wake     int
	executed int
	visits   visitCounts
}

// visitCounts tallies the entries the phase loops examined: the
// clock-free measure of scheduler cost the work-proportionality tests
// hold against the work a run actually did. Like exec.executed it
// never reaches a Result.
type visitCounts struct {
	hops     int // route hops examined by advance, release and interior collect
	releases int // moved-set messages examined by releasePhase
	firstHop int // dirty cells examined by collectFirstHop
	setWords int // ready-set words, summary and member, read by the phase loops' scans
}

// noWake is the wake value of a cycle in which no candidate was held
// back by a predicate that time alone can flip. It equals fault.Never,
// so a dead cell's or severed link's next-open cycle folds to "no
// wake" without a special case.
const noWake = fault.Never

// deliver appends a received word. Each message's slice is a window
// into one per-run arena, installed on first delivery (so messages
// that never deliver stay nil, as callers expect) and capped at the
// declared word count: the whole run's received output costs one
// allocation instead of one per message.
//
//sysvet:hotpath
func (e *exec) deliver(id model.MessageID, w Word) {
	if e.received[id] == nil {
		off, end := e.m.wordOff[id], e.m.wordOff[id+1]
		e.received[id] = e.arena[off:off:end]
	}
	e.received[id] = append(e.received[id], w)
}

// grow returns s resized to n, reusing its backing array when large
// enough. Contents are unspecified; callers clear what they need.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// init sizes the exec for one run, reusing pooled backing arrays.
func (e *exec) init(m *Machine, opts *ExecOptions, tbl *poolTable, flavor int, flt *fault.Lowered, lm *linkmodel.Lowered) {
	e.m = m
	e.logic = opts.Logic
	e.policy = opts.Policy
	e.flavor = flavor
	e.capacity = opts.Capacity
	e.queuesPerLink = opts.QueuesPerLink
	e.recordTimeline = opts.RecordTimeline
	e.faults = flt
	e.lm = lm
	e.lmBusyMax = 0
	if lm != nil {
		n := len(m.links)
		e.lmNextFree = grow(e.lmNextFree, n)
		e.lmTally = grow(e.lmTally, n)
		clear(e.lmNextFree)
		clear(e.lmTally)
		e.lmDirty = e.lmDirty[:0]
	}

	q := opts.QueuesPerLink
	e.numPools = tbl.numPools
	e.queues = grow(e.queues, e.numPools*q)
	// Queues that can be bound this run (see poolTable.binds) and lack a
	// ring of its size are counted here and given one out of a single
	// array below; a warm exec has them all. A bound queue holds words
	// of one message at a time, so no ring needs more than the largest
	// message's words, whatever the capacity.
	ring, short := min(opts.Capacity+opts.ExtCapacity, m.maxWords), 0
	for i := range e.queues {
		qi := &e.queues[i]
		pool := i / q
		realLink := topology.LinkID(pool)
		qi.idx = i % q
		if flavor == 1 {
			realLink = topology.LinkID(pool / 2)
			// A link's two pools are contiguous (forward 0..Q-1,
			// reverse Q..2Q-1), keeping (link, idx) unique in
			// timelines and stats.
			qi.idx = i % (2 * q)
		}
		qi.link = realLink
		qi.slot = i
		qi.bound = false
		qi.msg = 0
		qi.hop = 0
		qi.cooling = false
		qi.q.Init(opts.Capacity, opts.ExtCapacity, opts.ExtPenalty)
		if qi.q.RingLen() < ring && tbl.binds(i, q) {
			short++
		}
	}
	if short > 0 {
		rings := make([]Word, short*ring)
		for i := range e.queues {
			if qq := &e.queues[i].q; qq.RingLen() < ring && tbl.binds(i, q) {
				qq.Provision(rings[:ring:ring])
				rings = rings[ring:]
			}
		}
	}
	e.pending = grow(e.pending, e.numPools)
	e.pendingBuf = grow(e.pendingBuf, m.totalHops)
	for p, at := 0, 0; p < e.numPools; p++ {
		end := at + len(tbl.competingByPool[p])
		e.pending[p] = e.pendingBuf[at:at:end]
		at = end
	}

	totalHops := m.totalHops
	e.hopQ = grow(e.hopQ, totalHops)
	e.hopFlags = grow(e.hopFlags, 2*totalHops)
	e.hopInts = grow(e.hopInts, totalHops)
	clear(e.hopQ)
	clear(e.hopFlags)
	clear(e.hopInts)
	msgs := m.prog.NumMessages()
	e.msgs = grow(e.msgs, msgs)
	for id := range e.msgs {
		off, end := m.hopOff[id], m.hopOff[id+1]
		e.msgs[id] = msgState{
			queues:    e.hopQ[off:end:end],
			granted:   e.hopFlags[off:end:end],
			requested: e.hopFlags[int32(totalHops)+off : int32(totalHops)+end : int32(totalHops)+end],
			departed:  e.hopInts[off:end:end],
			head:      -1,
		}
	}

	cells := m.prog.NumCells()
	e.pc = grow(e.pc, cells)
	copy(e.pc, m.opOff)
	e.issued = grow(e.issued, cells)
	e.finishedAt = grow(e.finishedAt, cells)
	clear(e.issued)
	clear(e.finishedAt)
	e.remaining = m.codeCells

	// Every cell and every pool starts "dirty": cycle 0 of the
	// reference engine scans them all, and so do we — once.
	e.dirty.sizeTo(cells)
	e.dirty.fill(cells)
	e.transport.sizeTo(msgs)
	e.writers.sizeTo(msgs)
	e.writerSnap.sizeTo(msgs)
	e.reqSet.sizeTo(msgs)
	e.movedSet.sizeTo(msgs)
	e.armed.sizeTo(e.numPools)
	e.armed.fill(e.numPools)
	e.armedScratch.sizeTo(e.numPools)
	e.cooling = e.cooling[:0]

	e.hasInterior = m.maxRouteLen > 1
	e.cancel = nil
	e.cancelled = false
	if opts.Context != nil {
		e.cancel = opts.Context.Done()
	}

	if e.reuse {
		// Arena contents need no clearing: deliver re-installs each
		// message's window empty and only appended words are exposed.
		e.received = grow(e.received, msgs)
		clear(e.received)
		e.arena = grow(e.arena, m.totalWords)
	} else {
		e.received = make([][]Word, msgs)
		e.arena = make([]Word, m.totalWords)
	}
	e.res = Result{}
	e.stats = Stats{}
	e.now = 0
	e.moved = false
	e.wake = noWake
	e.executed = 0
	e.visits = visitCounts{}
}

// release clears the per-run inputs — the machine above all, which the
// pool must not keep alive — and, unless the exec is a batch exec whose
// buffers are its own, every reference that escaped into the returned
// Result, before the exec returns to the process-wide pool.
func (e *exec) release() {
	e.m = nil
	e.logic = nil
	e.policy = nil
	if !e.reuse {
		e.received = nil
		e.arena = nil
	}
	e.cancel = nil
	e.faults = nil
	e.lm = nil
	e.ctx = assign.Context{}
	e.res = Result{}
	e.stats = Stats{}
}

// poolOf returns the pool serving hop i of message id under the
// run's regime.
//
//sysvet:hotpath
func (e *exec) poolOf(id model.MessageID, hop int) int {
	return int(e.m.hops[e.m.hopOff[id]+int32(hop)].pool[e.flavor])
}

// hopLink returns the physical link of hop i of message id.
//
//sysvet:hotpath
func (e *exec) hopLink(id model.MessageID, hop int) topology.LinkID {
	return e.m.hops[e.m.hopOff[id]+int32(hop)].link
}

// linkFree reports whether link lk can carry words this cycle, i.e.
// it is not inside a busy window from an earlier cycle's traffic.
// Callers gate with e.lm != nil so the unit-latency path never loads
// the table.
//
//sysvet:hotpath
func (e *exec) linkFree(lk topology.LinkID) bool {
	return e.now >= e.lmNextFree[lk]
}

// noteLinkHit tallies one word crossing link lk this cycle. Callers
// gate with e.lm != nil.
//
//sysvet:hotpath
func (e *exec) noteLinkHit(lk topology.LinkID) {
	if e.lmTally[lk] == 0 {
		e.lmDirty = append(e.lmDirty, int32(lk))
	}
	e.lmTally[lk]++
}

// lmEndCycle closes the cycle's link occupancy: every link with
// traffic this cycle gets a busy window from the model
// (nextFree = now + Busy(link, tally)), and the tallies reset.
// It runs after the release phase — the reference engine runs the
// identical fold at the identical point.
//
//sysvet:hotpath
func (e *exec) lmEndCycle() {
	for _, l := range e.lmDirty {
		nf := e.now + e.lm.Busy(topology.LinkID(l), e.lmTally[l])
		e.lmNextFree[l] = nf
		if nf > e.lmBusyMax {
			e.lmBusyMax = nf
		}
		e.lmTally[l] = 0
	}
	e.lmDirty = e.lmDirty[:0]
}

// noteWake folds cycle t into this cycle's wake minimum: some
// candidate is held back by a predicate that cannot flip before t.
//
//sysvet:hotpath
func (e *exec) noteWake(t int) {
	e.wake = min(e.wake, t)
}

// noteGated counts one operation held back by a fault gate that
// cannot reopen before cycle reopen (fault.Never for a dead cell or a
// severed link).
//
//sysvet:hotpath
func (e *exec) noteGated(reopen int) {
	e.stats.GatedOps++
	e.wake = min(e.wake, reopen)
}

// pool returns the queue instances of pool p.
//
//sysvet:hotpath
func (e *exec) pool(p int) []queueInst {
	return e.queues[p*e.queuesPerLink : (p+1)*e.queuesPerLink]
}

// hopOn returns the route hop of msg served by pool, or -1.
//
//sysvet:hotpath
func (e *exec) hopOn(pool int, msg model.MessageID) int {
	hops := e.m.msgHops(msg)
	for i := range hops {
		if int(hops[i].pool[e.flavor]) == pool {
			return i
		}
	}
	return -1
}

// noteTransport records that id, which had nothing buffered, now has a
// word on its route. Safe in place: the write phase is the only
// caller, and the transport set's walks (reads, advances) ran earlier
// in the cycle. An id that is still a member (drained this cycle, not
// yet dropped) collapses in add.
//
//sysvet:hotpath
func (e *exec) noteTransport(id model.MessageID) {
	e.transport.add(int(id))
}

// noteWriter records that id's sender is parked at W(id) with the
// first-hop queue bound. Called from the grant hook and the
// pc-advance hook, which together cover both orders the two
// conditions can become true in. The insertion is immediate, and what
// it means follows from where the cycle's writer snapshot is taken (the
// top of the transfer phase): a grant lands before it, so the write can
// go this very cycle, exactly as the reference engine's in-line
// insertion allows; a pc advance lands after it, in next cycle's
// snapshot — the cell has issued its one op of this cycle.
//
//sysvet:hotpath
func (e *exec) noteWriter(id model.MessageID) {
	e.writers.add(int(id))
}

// dropWriter retires id from the writer set: its sender is no longer
// parked at W(id) over a bound first hop. Only the write phase calls
// it, while walking the snapshot, so the real set is free to change
// under the walk; the sender may come back to W(id) later in the same
// phase (noteWriter) and the entry then stays a member.
//
//sysvet:hotpath
func (e *exec) dropWriter(id model.MessageID) {
	e.writers.drop(int(id))
}

// noteReqCheck records that id's header entered a new hop (head
// advanced): the hop after it may now be requestable. Only that event
// can make one — collectInterior marks head+1 the first time it sees
// it. Callers keep the set empty on machines where every route is a
// single hop, whose interior phases are skipped outright.
//
//sysvet:hotpath
func (e *exec) noteReqCheck(id model.MessageID) {
	e.reqSet.add(int(id))
}

// noteMoved records that id's last word departed a hop: that hop's
// queue is now releasable.
//
//sysvet:hotpath
func (e *exec) noteMoved(id model.MessageID) {
	e.movedSet.add(int(id))
}

// noteEvent records per-cycle progress: the cycle saw an event (so the
// run is not deadlocked) and words hop traversals.
//
//sysvet:hotpath
func (e *exec) noteEvent(words int) {
	e.moved = true
	e.stats.WordsMoved += words
}

// noteCooling registers a queue whose Pop may have armed an
// extension-access cooldown.
//
//sysvet:hotpath
func (e *exec) noteCooling(qi *queueInst) {
	if !qi.cooling && qi.q.Cooling() {
		qi.cooling = true
		e.cooling = append(e.cooling, qi.slot)
	}
}

// markCellDirty records a cell whose pc advanced onto a W that still
// has its first hop to ask for. The next collect reads it; this
// cycle's already ran.
//
//sysvet:hotpath
func (e *exec) markCellDirty(c int) {
	e.dirty.add(c)
}

// issuedNow reports whether cell c has already issued its one op of
// this cycle.
//
//sysvet:hotpath
func (e *exec) issuedNow(c int) bool {
	return e.issued[c] == e.now+1
}

// front returns cell c's front op; ok is false once the cell has
// issued its whole program.
//
//sysvet:hotpath
func (e *exec) front(c int) (op packedOp, ok bool) {
	if pc := e.pc[c]; pc < e.m.opOff[c+1] {
		return e.m.ops[pc], true
	}
	return 0, false
}

// issuedOps returns how many ops cell c has issued: its front op's
// index in the cell's own program.
func (e *exec) issuedOps(c int) int {
	return int(e.pc[c] - e.m.opOff[c])
}

// advancePC issues cell c's front op: one op per cell per cycle. Only
// a new front op that is a write wakes anything: the dirty-cell pass
// if the message has yet to ask for its first hop, the writer set if
// that hop is already bound (a reserving policy can make both true at
// once).
//
//sysvet:hotpath
func (e *exec) advancePC(c int) {
	e.pc[c]++
	e.issued[c] = e.now + 1
	op, ok := e.front(c)
	if !ok {
		e.finishedAt[c] = e.now
		e.remaining--
		return
	}
	if op.isWrite() {
		id := op.msg()
		ms := &e.msgs[id]
		if len(ms.queues) == 0 {
			return
		}
		if !ms.requested[0] {
			e.markCellDirty(c)
		}
		if ms.queues[0] != nil {
			e.noteWriter(id)
		}
	}
}

// run executes the scheduler loop. The cycle structure — tick,
// collect, grant, transfer, release, deadlock check — is the
// reference engine's, with each phase visiting only its ready set,
// and with one departure in host time only: after a no-event cycle
// that is not a deadlock the loop does not step through the cycles
// that would repeat it but jumps to the first one that can differ
// (fastForward).
func (e *exec) run(maxCycles int) {
	for e.now = 0; e.now < maxCycles; e.now++ {
		if e.remaining == 0 {
			break
		}
		if e.cancel != nil {
			select {
			case <-e.cancel:
				e.cancelled = true
				return
			default:
			}
		}
		e.executed++
		e.moved = false
		e.wake = noWake
		gated := e.stats.GatedOps
		e.tickCooling()
		e.collectRequests()
		e.grantPhase()
		e.cellAndTransferPhase()
		e.releasePhase()
		if e.lm != nil {
			e.lmEndCycle()
		}
		if e.moved {
			continue
		}
		if !e.anyCooling() && (e.faults == nil || e.faults.AllPeriodicOpen(e.now)) &&
			(e.lm == nil || e.now >= e.lmBusyMax) {
			// A no-event cycle proves deadlock only if every periodic
			// fault gate was open: a closed gate may be the sole reason
			// nothing moved, and the system can progress once it
			// reopens. Dead cells and severed links never reopen, so
			// they are rightly excluded — work stalled on them is a
			// genuine, deterministic deadlock. Likewise a link still
			// inside a busy window (now < lmBusyMax) may be the sole
			// stall cause; every window is finite, so waiting it out
			// keeps deadlock detection exact.
			e.res.Deadlocked = true
			e.res.Blocked = e.blockedReport()
			break
		}
		e.fastForward(maxCycles, e.stats.GatedOps-gated)
	}
}

// fastForward runs after a no-event cycle that is not a deadlock and
// skips the cycles that would repeat it. Such a cycle is a fixpoint of
// everything but time: it leaves dirty, reqSet, armed and movedSet
// empty, so until some time-dependent predicate flips,
// every following cycle visits the same candidates, holds each back
// for the same reason and gates the same gated operations. The first
// cycle that can differ is the earliest of
//
//   - e.wake: the gate sites' minimum over the busy windows
//     (lmNextFree) and closed periodic fault gates (next multiple of
//     the factor) that held a candidate back this cycle — dead cells
//     and severed links contribute nothing;
//   - now + cooldown for every queue on the cooling list.
//
// No cycle before that one can be declared a deadlock either: the
// predicate needs the very gate open, now ≥ lmBusyMax ≥ that window's
// end, or no cooldown running. When nothing time-dependent holds a
// candidate (work parked behind a dead cell, say) the run is stalled
// for good and only the deadlock predicate itself is waiting — for
// the last busy window to close and for a cycle on which every
// periodic gate is open — so the jump goes straight to the first cycle
// that satisfies it. Either way the target cycle is executed normally,
// which is what declares the deadlock, at the reference engine's
// cycle.
//
// The skipped cycles' only lasting effects are applied in bulk: each
// would have counted gated more GatedOps and ticked every running
// cooldown once. The target is clamped to maxCycles so a run that
// times out inside a window still reports Cycles == MaxCycles.
//
//sysvet:hotpath
func (e *exec) fastForward(maxCycles, gated int) {
	target := e.wake
	for _, slot := range e.cooling {
		if c := e.queues[slot].q.Cooldown(); c > 0 {
			target = min(target, e.now+c)
		}
	}
	if target == noWake {
		target = e.now + 1
		if e.lm != nil {
			target = max(target, e.lmBusyMax)
		}
		if e.faults != nil {
			target = e.faults.NextAllOpen(target, maxCycles)
		}
	}
	target = min(target, maxCycles)
	skipped := target - (e.now + 1)
	if skipped <= 0 {
		return
	}
	e.stats.GatedOps += gated * skipped
	for _, slot := range e.cooling {
		e.queues[slot].q.TickN(skipped)
	}
	e.now += skipped // the loop's increment lands on target
}

// tickCooling advances extension-penalty cooldowns, compacting
// entries whose cooldown has expired.
//
//sysvet:hotpath
func (e *exec) tickCooling() {
	w := 0
	for _, slot := range e.cooling {
		qi := &e.queues[slot]
		if qi.q.Cooling() {
			qi.q.Tick()
			e.cooling[w] = slot
			w++
		} else {
			qi.cooling = false
		}
	}
	e.cooling = e.cooling[:w]
}

// anyCooling reports whether some queue is waiting out an
// extension-access penalty; such cycles are latency, not deadlock.
//
//sysvet:hotpath
func (e *exec) anyCooling() bool {
	for _, slot := range e.cooling {
		if e.queues[slot].q.Cooling() {
			return true
		}
	}
	return false
}

// collectRequests registers queue requests: a message asks for its
// first hop when its sender reaches a W on it, and for hop i>0 when
// its header is buffered at the cell feeding that hop (§5). A request
// joins its pool's pending list — the *outstanding* requests of the
// assign.Policy contract — unless a reserving policy has granted the
// hop already, in which case there is nothing left to ask for: the
// request is marked and dropped, and the pool's state, unchanged, does
// not arm. First-hop checks run over dirty cells in cell order, then
// interior checks over live messages in message order — the same
// relative append order the reference full scan produces.
//
//sysvet:hotpath
func (e *exec) collectRequests() {
	if e.dirty.len() > 0 {
		e.collectFirstHop()
		e.dirty.clearAll()
	}
	if e.hasInterior && e.reqSet.len() > 0 {
		e.collectInterior()
		e.reqSet.clearAll()
	}
}

// collectFirstHop checks the dirty cells for senders parked at an
// unrequested W.
//
//sysvet:hotpath
func (e *exec) collectFirstHop() {
	set, seen := &e.dirty, &e.visits.setWords
	for w, word := set.scan(0, seen); word != 0; w, word = set.scan(w+1, seen) {
		for ; word != 0; word &= word - 1 {
			c := w<<6 | bits.TrailingZeros64(word)
			e.visits.firstHop++
			op, ok := e.front(c)
			if !ok || !op.isWrite() {
				continue
			}
			id := op.msg()
			ms := &e.msgs[id]
			if len(ms.queues) > 0 && !ms.requested[0] {
				ms.requested[0] = true
				if !ms.granted[0] {
					e.notePending(e.poolOf(id, 0), id)
				}
			}
		}
	}
}

// notePending registers msg's outstanding request on pool; the request
// changes the pool's pending list, so the pool arms.
//
//sysvet:hotpath
func (e *exec) notePending(pool int, msg model.MessageID) {
	e.pending[pool] = append(e.pending[pool], msg)
	e.armed.add(pool)
}

// collectInterior checks the reqSet: only
// messages whose header entered a new hop since the last collect can
// have a hop newly worth asking for, and it is head+1 — every hop up
// to head was asked for before a word could enter
// it or, bound early, the collect after the header reached the hop
// before it marked it. If head+1 is still unmarked the header was
// pushed into head since the last collect and is buffered there now
// (nothing moves between a transfer phase and the next collect), which
// is §5's condition. This subset in ascending order appends to the
// pending lists exactly as the full message scan does.
//
//sysvet:hotpath
func (e *exec) collectInterior() {
	set, seen := &e.reqSet, &e.visits.setWords
	for w, word := set.scan(0, seen); word != 0; w, word = set.scan(w+1, seen) {
		for ; word != 0; word &= word - 1 {
			id := model.MessageID(w<<6 | bits.TrailingZeros64(word))
			ms := &e.msgs[id]
			e.visits.hops++
			hop := int(ms.head) + 1
			if hop == len(ms.queues) || ms.requested[hop] {
				continue
			}
			ms.requested[hop] = true
			if !ms.granted[hop] {
				e.notePending(e.poolOf(id, hop), id)
			}
		}
	}
}

// grantPhase invokes the policy for every armed pool in ascending
// pool order. A pool re-arms whenever its free count or pending list
// changes, so every invocation the reference engine's per-cycle sweep
// would have made that could matter is made here too. Policy instances
// are stateful and their call order is part of the observable behavior.
//
//sysvet:hotpath
func (e *exec) grantPhase() {
	if e.armed.len() == 0 {
		return
	}
	// Swap the armed set with the (empty) scratch set: pools re-armed
	// while granting — by grantPool or next phase's releases — land in
	// the fresh set and are visited next grantPhase, never the one being
	// iterated.
	e.armed, e.armedScratch = e.armedScratch, e.armed
	set, seen := &e.armedScratch, &e.visits.setWords
	for w, word := set.scan(0, seen); word != 0; w, word = set.scan(w+1, seen) {
		for ; word != 0; word &= word - 1 {
			e.grantPool(w<<6 | bits.TrailingZeros64(word))
		}
	}
	set.clearAll()
}

// grantPool is grantPhase's visit to one armed pool: one Grant call and
// the bindings it asks for.
//
//sysvet:hotpath
func (e *exec) grantPool(pid int) {
	pool := e.pool(pid)
	free := 0
	for i := range pool {
		if !pool[i].bound {
			free++
		}
	}
	grants := e.policy.Grant(e.now, topology.LinkID(pid), free, e.pending[pid])
	for _, msg := range grants {
		if free == 0 {
			break // policy over-granted; ignore the excess
		}
		hop := e.hopOn(pid, msg)
		if hop < 0 || e.msgs[msg].granted[hop] {
			continue
		}
		var qi *queueInst
		for i := range pool {
			if !pool[i].bound {
				qi = &pool[i]
				break
			}
		}
		qi.bound = true
		qi.msg = msg
		qi.hop = hop
		ms := &e.msgs[msg]
		ms.granted[hop] = true
		ms.queues[hop] = qi
		free--
		e.moved = true
		e.stats.Grants++
		if ms.requested[hop] {
			// An outstanding request is met; a grant ahead of the
			// request (reserving policies) never entered the list.
			e.removePending(pid, msg)
		}
		e.armed.add(pid)
		if hop == 0 {
			// The sender may already be parked at W(msg) waiting
			// for exactly this grant.
			if op, ok := e.front(int(e.m.sender[msg])); ok && op == writeOf(msg) {
				e.noteWriter(msg)
			}
		}
		if e.recordTimeline {
			// Record the real link (qi.link), not the pool id:
			// under DirectionalPools pool ids are synthetic and
			// release events already use the real link.
			e.res.Timeline = append(e.res.Timeline, BindEvent{Cycle: e.now, Link: qi.link, QueueIdx: qi.idx, Msg: msg, Bound: true})
		}
	}
}

//sysvet:hotpath
func (e *exec) removePending(pool int, msg model.MessageID) {
	lst := e.pending[pool]
	for i, m := range lst {
		if m == msg {
			e.pending[pool] = append(lst[:i], lst[i+1:]...)
			return
		}
	}
}

// cellAndTransferPhase performs, in order: receiver reads, interior
// hop advances (swept from the receiver side so a pipeline advances
// one hop everywhere in a single cycle), rendezvous transfers for
// capacity-0 latches, and sender writes. Each cell issues at most one
// operation per cycle. All four sub-phases iterate live messages in
// ascending id order; a cell's front op names exactly one message, so
// this visits the same actions as the reference engine's cell-order
// scans.
//
//sysvet:hotpath
func (e *exec) cellAndTransferPhase() {
	// Snapshot the writer set up front: entries added mid-cycle belong
	// to cells that have already issued, so deferring them to the next
	// cycle is exactly what the issued-flag check in the full-scan
	// engine did.
	e.writerSnap.copyFrom(&e.writers)

	// 1. Receiver reads from buffered last-hop queues.
	if e.transport.len() > 0 {
		e.readPhase()
	}

	// 2. Interior advances, last hop toward receiver first. Single-hop
	// machines have no interior queues to advance.
	if e.hasInterior && e.transport.len() > 0 {
		e.advancePhase()
	}

	// 3. Capacity-0 rendezvous: single-hop messages hand a word
	//    directly from a writing sender to a reading receiver.
	if e.capacity == 0 {
		e.rendezvous()
	}

	// 4. Sender writes into first-hop queues.
	if e.writerSnap.len() > 0 {
		e.writePhase()
	}
}

// readPhase serves receiver reads for the transport set. Only messages
// with buffered words can serve a read; fully drained entries leave the
// set here.
//
//sysvet:hotpath
func (e *exec) readPhase() {
	set, seen := &e.transport, &e.visits.setWords
	for w, word := set.scan(0, seen); word != 0; w, word = set.scan(w+1, seen) {
		for ; word != 0; word &= word - 1 {
			id := model.MessageID(w<<6 | bits.TrailingZeros64(word))
			ms := &e.msgs[id]
			if ms.written == ms.read {
				// Dropping the current member mid-iteration is safe, and
				// every later sub-phase must see the post-drop set.
				e.transport.drop(int(id))
				continue
			}
			last := len(ms.queues) - 1
			if last < 0 || ms.queues[last] == nil {
				continue
			}
			cell := e.m.receiver[id]
			c := int(cell)
			if e.issuedNow(c) {
				continue
			}
			if op, ok := e.front(c); !ok || op != readOf(id) {
				continue
			}
			qi := ms.queues[last]
			if !qi.q.FrontReady() {
				continue
			}
			if e.faults != nil && !e.faults.CellOpen(cell, e.now) {
				e.noteGated(e.faults.CellNextOpen(cell, e.now))
				continue
			}
			got := qi.q.Pop()
			e.noteCooling(qi)
			e.logic.OnRead(cell, id, ms.read, got)
			e.deliver(id, got)
			ms.read++
			if ms.departed[last]++; ms.departed[last] == e.m.words[id] {
				e.noteMoved(id)
			}
			e.advancePC(c)
			e.noteEvent(1)
		}
	}
}

// advancePhase moves words between interior queues for the transport
// set, over each message's occupied-hop window: a hop before tail is
// released and a hop after head has no word to give, so neither can be
// the source of a move.
//
//sysvet:hotpath
func (e *exec) advancePhase() {
	set, seen := &e.transport, &e.visits.setWords
	for w, word := set.scan(0, seen); word != 0; w, word = set.scan(w+1, seen) {
		for ; word != 0; word &= word - 1 {
			id := model.MessageID(w<<6 | bits.TrailingZeros64(word))
			ms := &e.msgs[id]
			for hop := min(int(ms.head), len(ms.queues)-2); hop >= int(ms.tail); hop-- {
				e.visits.hops++
				src, dst := ms.queues[hop], ms.queues[hop+1]
				if dst == nil {
					continue
				}
				if src.q.FrontReady() && dst.q.CanAccept() {
					if e.lm != nil && !e.linkFree(e.hopLink(id, hop+1)) {
						// Busy-link stalls are timing, not degradation: no
						// GatedOps.
						e.noteWake(e.lmNextFree[e.hopLink(id, hop+1)])
						continue
					}
					if e.faults != nil && !e.faults.LinkOpen(e.hopLink(id, hop+1), e.now) {
						e.noteGated(e.faults.LinkNextOpen(e.hopLink(id, hop+1), e.now))
						continue
					}
					dst.q.Push(src.q.Pop())
					if e.lm != nil {
						e.noteLinkHit(e.hopLink(id, hop+1))
					}
					e.noteCooling(src)
					if h := int32(hop + 1); h > ms.head {
						ms.head = h
						e.noteReqCheck(id)
					}
					if ms.departed[hop]++; ms.departed[hop] == e.m.words[id] {
						e.noteMoved(id)
					}
					e.noteEvent(1)
				}
			}
		}
	}
}

// writePhase pushes sender words into first-hop queues for the writer
// snapshot.
//
//sysvet:hotpath
func (e *exec) writePhase() {
	set, seen := &e.writerSnap, &e.visits.setWords
	for w, word := set.scan(0, seen); word != 0; w, word = set.scan(w+1, seen) {
		for ; word != 0; word &= word - 1 {
			id := model.MessageID(w<<6 | bits.TrailingZeros64(word))
			ms := &e.msgs[id]
			if len(ms.queues) == 0 || ms.queues[0] == nil {
				e.dropWriter(id)
				continue
			}
			cell := e.m.sender[id]
			c := int(cell)
			if op, ok := e.front(c); !ok || op != writeOf(id) {
				e.dropWriter(id)
				continue
			}
			if e.issuedNow(c) {
				continue
			}
			qi := ms.queues[0]
			if !qi.q.CanAccept() {
				continue
			}
			if e.lm != nil && !e.linkFree(qi.link) {
				e.noteWake(e.lmNextFree[qi.link])
				continue
			}
			if e.faults != nil && (!e.faults.CellOpen(cell, e.now) || !e.faults.LinkOpen(qi.link, e.now)) {
				// The write needs both gates open at once, so it cannot go
				// before the later of their next-open cycles.
				e.noteGated(max(e.faults.CellNextOpen(cell, e.now), e.faults.LinkNextOpen(qi.link, e.now)))
				continue
			}
			qi.q.Push(e.logic.Produce(cell, id, ms.written))
			if e.lm != nil {
				e.noteLinkHit(qi.link)
			}
			if ms.written == ms.read {
				// Nothing was buffered, so the message may have been
				// dropped from the transport set; with words buffered it
				// is a member already.
				e.noteTransport(id)
			}
			ms.written++
			if ms.head < 0 {
				ms.head = 0
				if e.hasInterior {
					e.noteReqCheck(id)
				}
			}
			e.advancePC(c)
			e.noteEvent(0)
		}
	}
}

// rendezvous matches W(m) senders with R(m) receivers over bound
// capacity-0 latches: the word passes through without ever being
// buffered, the paper's "queues are just latches" regime.
//
//sysvet:hotpath
func (e *exec) rendezvous() {
	// A rendezvous needs the sender parked at W(id) over a bound
	// latch — precisely the writer set (capacity 0 admits only
	// single-hop routes, so every entry here is a latch candidate).
	set, seen := &e.writerSnap, &e.visits.setWords
	for w, word := set.scan(0, seen); word != 0; w, word = set.scan(w+1, seen) {
		for ; word != 0; word &= word - 1 {
			id := model.MessageID(w<<6 | bits.TrailingZeros64(word))
			ms := &e.msgs[id]
			if len(ms.queues) != 1 || ms.queues[0] == nil {
				continue
			}
			sc, rc := int(e.m.sender[id]), int(e.m.receiver[id])
			if e.issuedNow(sc) || e.issuedNow(rc) {
				continue
			}
			if op, ok := e.front(sc); !ok || op != writeOf(id) {
				continue
			}
			if op, ok := e.front(rc); !ok || op != readOf(id) {
				continue
			}
			if e.lm != nil && !e.linkFree(ms.queues[0].link) {
				e.noteWake(e.lmNextFree[ms.queues[0].link])
				continue
			}
			if e.faults != nil && (!e.faults.CellOpen(e.m.sender[id], e.now) ||
				!e.faults.CellOpen(e.m.receiver[id], e.now) ||
				!e.faults.LinkOpen(ms.queues[0].link, e.now)) {
				e.noteGated(max(e.faults.CellNextOpen(e.m.sender[id], e.now),
					e.faults.CellNextOpen(e.m.receiver[id], e.now),
					e.faults.LinkNextOpen(ms.queues[0].link, e.now)))
				continue
			}
			val := e.logic.Produce(e.m.sender[id], id, ms.written)
			e.logic.OnRead(e.m.receiver[id], id, ms.read, val)
			e.deliver(id, val)
			if e.lm != nil {
				e.noteLinkHit(ms.queues[0].link)
			}
			ms.written++
			ms.read++
			ms.head = 0
			if ms.departed[0]++; ms.departed[0] == e.m.words[id] {
				e.noteMoved(id)
			}
			e.advancePC(sc)
			e.advancePC(rc)
			e.noteEvent(1)
		}
	}
}

// releasePhase frees queues whose message has fully passed (§2.3: a
// queue may be reassigned only after the current message's last word
// has passed it) and retires messages with nothing left bound. A queue
// becomes releasable exactly on the cycle its message's last word
// departs it (the queue is empty at that same instant), so the messages
// whose last word departed a hop this cycle — the moved set — are the
// only release candidates, and the hop is the front of the occupied
// window: hops complete in route order, so the scan starts at tail and
// stops at the first hop still waiting for words. Ascending message
// order is the order of the release-side timeline events.
//
//sysvet:hotpath
func (e *exec) releasePhase() {
	if e.movedSet.len() == 0 {
		return
	}
	set, seen := &e.movedSet, &e.visits.setWords
	for w, word := set.scan(0, seen); word != 0; w, word = set.scan(w+1, seen) {
		for ; word != 0; word &= word - 1 {
			id := model.MessageID(w<<6 | bits.TrailingZeros64(word))
			ms := &e.msgs[id]
			words := e.m.words[id]
			e.visits.releases++
			for hop := int(ms.tail); hop <= int(ms.head); hop++ {
				e.visits.hops++
				qi := ms.queues[hop]
				if ms.departed[hop] != words || !qi.q.Empty() {
					break
				}
				qi.bound = false
				qi.q.Reset()
				ms.queues[hop] = nil // keep granted=true: the message had its turn
				ms.tail = int32(hop + 1)
				e.stats.Releases++
				e.armed.add(e.poolOf(id, hop))
				if e.recordTimeline {
					e.res.Timeline = append(e.res.Timeline, BindEvent{Cycle: e.now, Link: qi.link, QueueIdx: qi.idx, Msg: id, Bound: false})
				}
			}
		}
	}
	set.clearAll()
}

// result assembles the run's Result. Blocked-cycle accounting is the
// closed form of the reference engine's per-cycle counter: a cell is
// blocked in every cycle it existed unfinished and did not issue.
func (e *exec) result() Result {
	e.res.Completed = e.remaining == 0
	if !e.res.Completed && !e.res.Deadlocked {
		e.res.TimedOut = true
	}
	e.res.Cycles = e.now
	e.res.Received = e.received
	if e.faults != nil {
		// The descriptions are computed once at Lower and shared; the
		// content equality is what the cross-engine suites compare.
		e.res.Faults = e.faults.Descriptions()
	}

	// Cycles in which the reference engine's accounting ran: every
	// executed cycle, plus the deadlock cycle itself (its accounting
	// runs before the stall is declared).
	accounted := e.now
	if e.res.Deadlocked {
		accounted++
	}
	cells := e.m.prog.NumCells()
	var blocked []int
	if e.reuse {
		e.blockedBuf = grow(e.blockedBuf, cells)
		blocked = e.blockedBuf
		clear(blocked)
	} else {
		blocked = make([]int, cells)
	}
	for c := 0; c < cells; c++ {
		n := len(e.m.code(c))
		if n == 0 {
			continue
		}
		if e.issuedOps(c) >= n {
			// Unfinished through its final-issue cycle inclusive,
			// issuing in n of those cycles (the last of which is the
			// final-issue cycle itself, never counted as blocked).
			blocked[c] = e.finishedAt[c] + 1 - n
		} else {
			blocked[c] = accounted - e.issuedOps(c)
		}
	}
	e.stats.BlockedCycles = blocked
	e.stats.Cycles = e.now
	var qs []QueueStat
	if e.reuse && e.qstatBuf != nil {
		qs = e.qstatBuf[:0]
	} else {
		qs = make([]QueueStat, 0, len(e.queues))
	}
	for i := range e.queues {
		qi := &e.queues[i]
		// qi.link is the real link, not the pool id: under
		// DirectionalPools a link's two pools report under the same
		// physical link, matching the timeline's attribution.
		qs = append(qs, QueueStat{Link: qi.link, QueueIdx: qi.idx, Stats: qi.q.Stats()})
	}
	if e.reuse {
		e.qstatBuf = qs
	}
	e.stats.Queues = qs
	e.res.Stats = e.stats
	return e.res
}

func (e *exec) blockedReport() []CellBlock {
	var out []CellBlock
	if e.reuse {
		out = e.cellBlockBuf[:0]
	}
	for c := 0; c < e.m.prog.NumCells(); c++ {
		front, ok := e.front(c)
		if !ok {
			continue
		}
		op := front.op()
		out = append(out, CellBlock{Cell: model.CellID(c), Op: op, OpIdx: e.issuedOps(c), Reason: e.blockReason(op)})
	}
	if e.reuse {
		e.cellBlockBuf = out
	}
	return out
}

// blockReason renders one cell's stall cause. Plain concatenation
// rather than fmt: deadlocked sweep points hit this for every stuck
// cell, and Sprintf was a visible slice of their profile. The bytes
// are unchanged.
func (e *exec) blockReason(op model.Op) string {
	ms := &e.msgs[op.Msg]
	name := e.m.prog.Message(op.Msg).Name
	if op.Kind == model.Write {
		if len(ms.queues) > 0 && !ms.granted[0] {
			return "no queue bound for " + name + " on its first link"
		}
		return "queue for " + name + " is full (capacity " + strconv.Itoa(e.capacity) + ") and the downstream never drains"
	}
	last := len(ms.queues) - 1
	if last >= 0 && !ms.granted[last] {
		return "no queue bound for " + name + " on its last link"
	}
	return "no word of " + name + " has arrived"
}
