// Package refsim is the full-scan reference engine; test oracle only.
//
// It is the original execution engine, kept as the differential oracle
// for the compiled machine (internal/machine): every cycle it scans
// every cell, queue, and message, which makes it slow but easy to audit
// against the paper. The engine-equivalence suite (equiv_test.go)
// replays the fuzz corpus and hundreds of generated scenarios through
// Run and machine.Compile + Run, demanding byte-identical Results. Only
// test files import it; no shipped binary links it.
package refsim

import (
	"fmt"
	"math"
	"math/bits"

	"systolic/internal/assign"
	"systolic/internal/fault"
	"systolic/internal/linkmodel"
	"systolic/internal/machine"
	"systolic/internal/model"
	"systolic/internal/queue"
	"systolic/internal/topology"
)

// queueInst is one physical queue in a link's pool.
type queueInst struct {
	link topology.LinkID // the link, which is also the pool id
	idx  int
	q    queue.Queue

	bound bool
}

// msgState tracks one message's transport progress.
type msgState struct {
	route     []topology.Hop
	queues    []*queueInst // per hop; nil until granted
	granted   []bool
	requested []bool
	departed  []int // words that have left hop i (last hop: read by receiver)
	written   int   // words pushed by the sender
	read      int   // words consumed by the receiver
}

// runner holds all mutable state of one run; Run allocates it afresh.
type runner struct {
	p      *model.Program
	cfg    machine.ExecOptions
	logic  machine.CellLogic
	routes [][]topology.Hop
	links  []topology.Link

	queues  []queueInst         // link l's pool occupies [l*Q : (l+1)*Q]
	pending [][]model.MessageID // per pool, outstanding requests
	msgs    []msgState
	pc      []int
	issued  []bool

	received [][]machine.Word

	// faults holds the run's lowered fault tables; nil when fault-free.
	// The gates sit at the same four operation-issue sites as the
	// compiled machine's, each checked after every fault-free readiness
	// criterion, keeping the engines byte-identical under degradation.
	faults *fault.Lowered

	// lm mirrors the compiled machine's link-timing state exactly:
	// lmNextFree[l] is the first cycle link l is free again, lmTally[l]
	// the words that crossed it this cycle, lmDirty the links with a
	// non-zero tally, lmBusyMax the largest nextFree ever set. Gates
	// sit immediately before the fault link gates at the three
	// link-crossing sites; the end-of-cycle fold (lmEndCycle) runs
	// right after the release phase, as in the machine.
	lm         *linkmodel.Lowered
	lmNextFree []int
	lmTally    []int32
	lmDirty    []int32
	lmBusyMax  int

	res   machine.Result
	stats machine.Stats
	now   int
	moved bool // any event this cycle
}

// pool returns the queue instances of link l's pool, which serves
// both directions (§2.3).
func (r *runner) pool(l topology.LinkID) []queueInst {
	q := r.cfg.QueuesPerLink
	return r.queues[int(l)*q : (int(l)+1)*q]
}

// Run simulates the program over t with the original full-scan engine:
// the differential oracle the compiled machine is checked against. Its
// inputs are machine.Compile's and (*machine.Machine).Run's, and its
// semantics are identical to theirs by construction — and by the
// equivalence suite. Nil routes are computed; cfg.Context is ignored.
// Its option checks are the machine's own (machine.CheckOptions); the
// stall cause of each stuck cell and the default cycle bound it derives
// itself, as the independent half of the comparison.
func Run(p *model.Program, t topology.Topology, routes [][]topology.Hop, labels []int, cfg machine.ExecOptions) (*machine.Result, error) {
	if p == nil {
		return nil, &machine.ConfigError{Field: "Program", Reason: "nil program"}
	}
	if t == nil {
		return nil, &machine.ConfigError{Field: "Topology", Reason: "nil topology"}
	}
	if routes == nil {
		var err error
		routes, err = topology.Routes(p, t)
		if err != nil {
			return nil, err
		}
	} else if len(routes) != p.NumMessages() {
		return nil, &machine.ConfigError{Field: "Routes", Reason: fmt.Sprintf("%d entries for %d messages", len(routes), p.NumMessages())}
	}
	links := t.Links()
	multiHop := model.MessageID(-1)
	for id, rt := range routes {
		if len(rt) > 1 {
			multiHop = model.MessageID(id)
			break
		}
	}
	if err := machine.CheckOptions(&cfg, p, routes, len(links), multiHop); err != nil {
		return nil, err
	}
	// Fresh tables every run: the oracle shares no lowered state with
	// the machine, which lowers into tables its pooled run state keeps.
	flt := fault.Lower(new(fault.Lowered), cfg.Faults, p.NumCells(), len(links))
	lmo := linkmodel.Lower(new(linkmodel.Lowered), cfg.LinkModel, len(links))
	logic := cfg.Logic
	if logic == nil {
		logic = machine.SyntheticLogic{}
	}

	r := &runner{p: p, cfg: cfg, logic: logic, routes: routes, links: links, faults: flt, lm: lmo}
	r.setup()

	// Competing sets are indexed by pool, that is by link. Routes are
	// visited in id order, so each set is ascending, as the Context
	// requires.
	competing := make([][]model.MessageID, len(links))
	for id, route := range routes {
		for _, h := range route {
			competing[h.Link] = append(competing[h.Link], model.MessageID(id))
		}
	}
	ctx := &assign.Context{
		CompetingByPool: competing,
		Labels:          labels,
		QueuesPerLink:   cfg.QueuesPerLink,
	}
	if err := cfg.Policy.Setup(ctx); err != nil {
		return nil, err
	}

	maxCycles := cfg.MaxCycles
	if maxCycles <= 0 {
		var err error
		if maxCycles, err = defaultMaxCycles(p, routes, cfg.LinkModel.MaxFactor(len(links)), cfg.Faults.MaxFactor()); err != nil {
			return nil, err
		}
	}
	for r.now = 0; r.now < maxCycles; r.now++ {
		if r.done() {
			break
		}
		r.moved = false
		r.tickQueues()
		r.collectRequests()
		r.grantPhase()
		r.cellAndTransferPhase()
		r.releasePhase()
		if r.lm != nil {
			r.lmEndCycle()
		}
		r.accountBlocked()
		if !r.moved && !r.anyCooling() && (r.faults == nil || r.faults.AllPeriodicOpen(r.now)) &&
			(r.lm == nil || r.now >= r.lmBusyMax) {
			// A no-event cycle proves deadlock only if every periodic
			// fault gate was open (dead/severed elements never reopen
			// and are rightly excluded) and no link is still inside a
			// finite busy window — same rules as the machine.
			r.res.Deadlocked = true
			r.res.Blocked = r.blockedReport()
			break
		}
	}
	r.res.Completed = r.done()
	if !r.res.Completed && !r.res.Deadlocked {
		r.res.TimedOut = true
	}
	r.res.Cycles = r.now
	r.res.Received = r.received
	if r.faults != nil {
		r.res.Faults = r.faults.Descriptions()
	}
	r.stats.Queues = make([]machine.QueueStat, 0, len(r.queues))
	for i := range r.queues {
		qi := &r.queues[i]
		r.stats.Queues = append(r.stats.Queues, machine.QueueStat{Link: qi.link, QueueIdx: qi.idx, Stats: qi.q.Stats()})
	}
	r.res.Stats = r.stats
	return &r.res, nil
}

// defaultMaxCycles is the compiled machine's derived cycle bound,
// max(16·(words+1)·(hops+1)·L+4096, 2^14)·F, with the same ConfigError
// when a step of it does not fit in int. The overflow test is its own
// (full-width products), not the machine's division guard.
func defaultMaxCycles(p *model.Program, routes [][]topology.Hop, linkFactor, faultFactor int) (int, error) {
	words, hops := 0, 0
	for _, m := range p.Messages() {
		words += m.Words
		hops += len(routes[m.ID])
	}
	fits := true
	mul := func(a uint64, b int) uint64 {
		hi, lo := bits.Mul64(a, uint64(b))
		fits = fits && b >= 1 && hi == 0 && lo <= math.MaxInt
		return lo
	}
	n := mul(mul(mul(16, words+1), hops+1), linkFactor)
	fits = fits && n <= math.MaxInt-4096
	n = mul(max(n+4096, 1<<14), faultFactor)
	if !fits {
		return 0, &machine.ConfigError{Field: "MaxCycles", Reason: fmt.Sprintf(
			"derived cycle bound max(16·(%d+1)·(%d+1)·%d+4096, 2^14)·%d (words, hops, link slowdown, fault slowdown) does not fit in int; set MaxCycles explicitly",
			words, hops, linkFactor, faultFactor)}
	}
	return int(n), nil
}

// setup sizes the runner's state for the current program and
// configuration. Link ids are dense and each link has one pool, so
// pools live in one flat slice (link l's at [l*Q:(l+1)*Q]) in
// ascending link order.
func (r *runner) setup() {
	p, cfg := r.p, r.cfg
	r.queues = make([]queueInst, len(r.links)*cfg.QueuesPerLink)
	for i := range r.queues {
		qi := &r.queues[i]
		qi.link = topology.LinkID(i / cfg.QueuesPerLink)
		qi.idx = i % cfg.QueuesPerLink
		qi.q.Init(cfg.Capacity, cfg.ExtCapacity, cfg.ExtPenalty)
	}
	r.pending = make([][]model.MessageID, len(r.links))
	r.msgs = make([]msgState, p.NumMessages())
	for id, rt := range r.routes {
		n := len(rt)
		r.msgs[id] = msgState{
			route:     rt,
			queues:    make([]*queueInst, n),
			granted:   make([]bool, n),
			requested: make([]bool, n),
			departed:  make([]int, n),
		}
	}
	r.pc = make([]int, p.NumCells())
	r.issued = make([]bool, p.NumCells())
	if r.lm != nil {
		r.lmNextFree = make([]int, len(r.links))
		r.lmTally = make([]int32, len(r.links))
	}
	r.received = make([][]machine.Word, p.NumMessages())
	r.stats.BlockedCycles = make([]int, p.NumCells())
}

// linkFree reports whether link lk can carry words this cycle (not
// inside a busy window). Callers gate with r.lm != nil.
func (r *runner) linkFree(lk topology.LinkID) bool {
	return r.now >= r.lmNextFree[lk]
}

// noteLinkHit tallies one word crossing link lk this cycle. Callers
// gate with r.lm != nil.
func (r *runner) noteLinkHit(lk topology.LinkID) {
	if r.lmTally[lk] == 0 {
		r.lmDirty = append(r.lmDirty, int32(lk))
	}
	r.lmTally[lk]++
}

// lmEndCycle closes the cycle's link occupancy, exactly as the
// compiled machine's fold does: nextFree = now + Busy(link, tally) for
// every link with traffic, then tallies reset.
func (r *runner) lmEndCycle() {
	for _, l := range r.lmDirty {
		nf := r.now + r.lm.Busy(topology.LinkID(l), r.lmTally[l])
		r.lmNextFree[l] = nf
		if nf > r.lmBusyMax {
			r.lmBusyMax = nf
		}
		r.lmTally[l] = 0
	}
	r.lmDirty = r.lmDirty[:0]
}

func (r *runner) done() bool {
	for c := 0; c < r.p.NumCells(); c++ {
		if r.pc[c] < len(r.p.Code(model.CellID(c))) {
			return false
		}
	}
	return true
}

// anyCooling reports whether some queue is waiting out an
// extension-access penalty; such cycles are latency, not deadlock.
func (r *runner) anyCooling() bool {
	for i := range r.queues {
		if r.queues[i].q.Cooling() {
			return true
		}
	}
	return false
}

func (r *runner) tickQueues() {
	for i := range r.queues {
		r.queues[i].q.Tick()
	}
}

// collectRequests registers queue requests: a message asks for its
// first hop when its sender reaches a W on it, and for hop i>0 when its
// header is buffered at the cell feeding that hop (§5: "when the
// header of a message arrives at a cell"). pending holds the
// outstanding requests only (the assign.Policy contract): a request for
// a hop a reserving policy has granted already is marked and dropped.
func (r *runner) collectRequests() {
	for c := 0; c < r.p.NumCells(); c++ {
		code := r.p.Code(model.CellID(c))
		if r.pc[c] >= len(code) {
			continue
		}
		op := code[r.pc[c]]
		if op.Kind != model.Write {
			continue
		}
		ms := &r.msgs[op.Msg]
		if len(ms.route) > 0 && !ms.requested[0] {
			ms.requested[0] = true
			if !ms.granted[0] {
				pool := ms.route[0].Link
				r.pending[pool] = append(r.pending[pool], op.Msg)
			}
		}
	}
	for id := range r.msgs {
		ms := &r.msgs[id]
		for hop := 1; hop < len(ms.route); hop++ {
			if ms.requested[hop] || ms.queues[hop-1] == nil {
				continue
			}
			if ms.queues[hop-1].q.Len() > 0 {
				ms.requested[hop] = true
				if !ms.granted[hop] {
					pool := ms.route[hop].Link
					r.pending[pool] = append(r.pending[pool], model.MessageID(id))
				}
			}
		}
	}
}

// hopOn returns the route hop of msg served by pool link, or -1. A
// shortest-path route crosses each link (and so each pool) at most
// once, and routes are short, so a linear scan beats the per-run map
// the runner used to build.
func (r *runner) hopOn(link topology.LinkID, msg model.MessageID) int {
	for hop, h := range r.msgs[msg].route {
		if h.Link == link {
			return hop
		}
	}
	return -1
}

func (r *runner) grantPhase() {
	for link := range topology.LinkID(len(r.links)) {
		pool := r.pool(link)
		free := 0
		for i := range pool {
			if !pool[i].bound {
				free++
			}
		}
		grants := r.cfg.Policy.Grant(r.now, link, free, r.pending[link])
		for _, msg := range grants {
			if free == 0 {
				break // policy over-granted; ignore the excess
			}
			hop := r.hopOn(link, msg)
			if hop < 0 || r.msgs[msg].granted[hop] {
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
			ms := &r.msgs[msg]
			ms.granted[hop] = true
			ms.queues[hop] = qi
			free--
			r.moved = true
			r.stats.Grants++
			if ms.requested[hop] {
				r.removePending(link, msg)
			}
			if r.cfg.RecordTimeline {
				r.res.Timeline = append(r.res.Timeline, machine.BindEvent{Cycle: r.now, Link: qi.link, QueueIdx: qi.idx, Msg: msg, Bound: true})
			}
		}
	}
}

func (r *runner) removePending(link topology.LinkID, msg model.MessageID) {
	lst := r.pending[link]
	for i, m := range lst {
		if m == msg {
			r.pending[link] = append(lst[:i], lst[i+1:]...)
			return
		}
	}
}

// cellAndTransferPhase performs, in order: receiver reads, interior
// hop advances (swept from the receiver side so a pipeline advances
// one hop everywhere in a single cycle), rendezvous transfers for
// capacity-0 latches, and sender writes. Each cell issues at most one
// operation per cycle.
func (r *runner) cellAndTransferPhase() {
	for c := range r.issued {
		r.issued[c] = false
	}
	// 1. Receiver reads from buffered last-hop queues.
	for c := 0; c < r.p.NumCells(); c++ {
		cell := model.CellID(c)
		code := r.p.Code(cell)
		if r.issued[c] || r.pc[c] >= len(code) {
			continue
		}
		op := code[r.pc[c]]
		if op.Kind != model.Read {
			continue
		}
		ms := &r.msgs[op.Msg]
		last := len(ms.route) - 1
		if last < 0 || ms.queues[last] == nil {
			continue
		}
		qi := ms.queues[last]
		if !qi.q.FrontReady() {
			continue
		}
		if r.faults != nil && !r.faults.CellOpen(cell, r.now) {
			r.stats.GatedOps++
			continue
		}
		w := qi.q.Pop()
		r.logic.OnRead(cell, op.Msg, ms.read, w)
		r.received[op.Msg] = append(r.received[op.Msg], w)
		ms.read++
		ms.departed[last]++
		r.pc[c]++
		r.issued[c] = true
		r.moved = true
		r.stats.WordsMoved++
	}
	// 2. Interior advances, last hop toward receiver first.
	for id := range r.msgs {
		ms := &r.msgs[id]
		for hop := len(ms.route) - 2; hop >= 0; hop-- {
			src, dst := ms.queues[hop], ms.queues[hop+1]
			if src == nil || dst == nil {
				continue
			}
			if src.q.FrontReady() && dst.q.CanAccept() {
				if r.lm != nil && !r.linkFree(ms.route[hop+1].Link) {
					// Busy-link stalls are timing, not degradation: no
					// GatedOps.
					continue
				}
				if r.faults != nil && !r.faults.LinkOpen(ms.route[hop+1].Link, r.now) {
					r.stats.GatedOps++
					continue
				}
				dst.q.Push(src.q.Pop())
				if r.lm != nil {
					r.noteLinkHit(ms.route[hop+1].Link)
				}
				ms.departed[hop]++
				r.moved = true
				r.stats.WordsMoved++
			}
		}
	}
	// 3. Capacity-0 rendezvous: single-hop messages hand a word
	//    directly from a writing sender to a reading receiver.
	if r.cfg.Capacity == 0 {
		r.rendezvous()
	}
	// 4. Sender writes into first-hop queues.
	for c := 0; c < r.p.NumCells(); c++ {
		cell := model.CellID(c)
		code := r.p.Code(cell)
		if r.issued[c] || r.pc[c] >= len(code) {
			continue
		}
		op := code[r.pc[c]]
		if op.Kind != model.Write {
			continue
		}
		ms := &r.msgs[op.Msg]
		if len(ms.route) == 0 || ms.queues[0] == nil {
			continue
		}
		qi := ms.queues[0]
		if !qi.q.CanAccept() {
			continue
		}
		if r.lm != nil && !r.linkFree(ms.route[0].Link) {
			continue
		}
		if r.faults != nil && (!r.faults.CellOpen(cell, r.now) || !r.faults.LinkOpen(ms.route[0].Link, r.now)) {
			r.stats.GatedOps++
			continue
		}
		qi.q.Push(r.logic.Produce(cell, op.Msg, ms.written))
		if r.lm != nil {
			r.noteLinkHit(ms.route[0].Link)
		}
		ms.written++
		r.pc[c]++
		r.issued[c] = true
		r.moved = true
	}
}

// rendezvous matches W(m) senders with R(m) receivers over bound
// capacity-0 latches: the word passes through without ever being
// buffered, the paper's "queues are just latches" regime.
func (r *runner) rendezvous() {
	for id := range r.msgs {
		ms := &r.msgs[id]
		if len(ms.route) != 1 || ms.queues[0] == nil {
			continue
		}
		m := r.p.Message(model.MessageID(id))
		sc, rc := int(m.Sender), int(m.Receiver)
		if r.issued[sc] || r.issued[rc] {
			continue
		}
		sCode, rCode := r.p.Code(m.Sender), r.p.Code(m.Receiver)
		if r.pc[sc] >= len(sCode) || r.pc[rc] >= len(rCode) {
			continue
		}
		sOp, rOp := sCode[r.pc[sc]], rCode[r.pc[rc]]
		if sOp.Kind != model.Write || sOp.Msg != model.MessageID(id) {
			continue
		}
		if rOp.Kind != model.Read || rOp.Msg != model.MessageID(id) {
			continue
		}
		if r.lm != nil && !r.linkFree(ms.route[0].Link) {
			continue
		}
		if r.faults != nil && (!r.faults.CellOpen(m.Sender, r.now) ||
			!r.faults.CellOpen(m.Receiver, r.now) ||
			!r.faults.LinkOpen(ms.route[0].Link, r.now)) {
			r.stats.GatedOps++
			continue
		}
		w := r.logic.Produce(m.Sender, m.ID, ms.written)
		r.logic.OnRead(m.Receiver, m.ID, ms.read, w)
		r.received[m.ID] = append(r.received[m.ID], w)
		if r.lm != nil {
			r.noteLinkHit(ms.route[0].Link)
		}
		ms.written++
		ms.read++
		ms.departed[0]++
		r.pc[sc]++
		r.pc[rc]++
		r.issued[sc] = true
		r.issued[rc] = true
		r.moved = true
		r.stats.WordsMoved++
	}
}

// releasePhase frees queues whose message has fully passed (§2.3: a
// queue may be reassigned only after the current message's last word
// has passed it).
func (r *runner) releasePhase() {
	for id := range r.msgs {
		ms := &r.msgs[id]
		m := r.p.Message(model.MessageID(id))
		for hop := range ms.route {
			if !ms.granted[hop] || ms.queues[hop] == nil {
				continue
			}
			if ms.departed[hop] == m.Words && ms.queues[hop].q.Empty() {
				qi := ms.queues[hop]
				qi.bound = false
				qi.q.Reset()
				ms.queues[hop] = nil // keep granted=true: the message had its turn
				r.stats.Releases++
				if r.cfg.RecordTimeline {
					r.res.Timeline = append(r.res.Timeline, machine.BindEvent{Cycle: r.now, Link: qi.link, QueueIdx: qi.idx, Msg: model.MessageID(id), Bound: false})
				}
			}
		}
	}
}

func (r *runner) accountBlocked() {
	for c := 0; c < r.p.NumCells(); c++ {
		if !r.issued[c] && r.pc[c] < len(r.p.Code(model.CellID(c))) {
			r.stats.BlockedCycles[c]++
		}
	}
}

// blockedReport lists every unfinished cell with the cause its front
// op is stuck on, picked from the runner's own per-hop state.
func (r *runner) blockedReport() []machine.CellBlock {
	var out []machine.CellBlock
	for c := 0; c < r.p.NumCells(); c++ {
		cell := model.CellID(c)
		code := r.p.Code(cell)
		if r.pc[c] >= len(code) {
			continue
		}
		op := code[r.pc[c]]
		cb := machine.CellBlock{Cell: cell, Op: op, OpIdx: r.pc[c]}
		ms := &r.msgs[op.Msg]
		last := len(ms.route) - 1
		switch {
		case op.Kind == model.Write && last >= 0 && !ms.granted[0]:
			cb.Cause = machine.StallNoFirstQueue
		case op.Kind == model.Write:
			cb.Cause, cb.Capacity = machine.StallQueueFull, r.cfg.Capacity
		case last >= 0 && !ms.granted[last]:
			cb.Cause = machine.StallNoLastQueue
		default:
			cb.Cause = machine.StallNoWord
		}
		out = append(out, cb)
	}
	return out
}
