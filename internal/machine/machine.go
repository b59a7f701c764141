// Package machine is the compile-once execution core: it lowers an
// analyzed scenario (program, topology, routes, labels) into a flat,
// index-based intermediate representation — per-cell op streams,
// per-hop pool ids, precomputed competing sets — that one Compile
// call produces and unlimited Run calls consume. Compile lowers the
// shared-pool regime of §2.3, the one every caller runs; the
// per-direction regime (ExecOptions.DirectionalPools) is lowered by
// the first run that selects it.
//
// The split mirrors what cycle-accurate co-simulation platforms do to
// reach production throughput: all per-scenario derivation (routing,
// pool layout, label ordering) happens once, so the per-run cost is
// pure simulation, and the per-cycle cost is driven by a ready-set
// scheduler (see exec.go) that revisits only the cells, messages, and
// queue pools an event has actually touched — O(active) instead of the
// former full O(cells + queues + messages) scan.
//
// A *Machine is immutable after Compile, as its callers see it, and
// safe for concurrent Run calls; the directional pool table is built
// once, under a sync.Once, whichever run asks first. A run's scratch —
// queue instances, per-message hop state, ready sets, rings — belongs
// to the process, not to a machine: one sync.Pool of execution
// contexts feeds every Run and every Exec, and exec.init sizes each
// table from the machine at hand, so a context warmed by any machine
// serves any other and a newly compiled machine's first run allocates
// only what its Result keeps. Run borrows a context and returns it
// before it returns; an Exec holds one until Release. The
// scheduler is cycle-for-cycle equivalent to the reference full-scan
// engine kept in internal/refsim; the equivalence suite there replays
// the fuzz corpus plus hundreds of generated scenarios through both
// and demands byte-identical Results.
package machine

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"systolic/internal/assign"
	"systolic/internal/fault"
	"systolic/internal/linkmodel"
	"systolic/internal/model"
	"systolic/internal/queue"
	"systolic/internal/topology"
)

// Word re-exports the queue word type.
type Word = queue.Word

// ConfigError is a typed rejection of an invalid configuration: the
// named field cannot be compiled or simulated. Callers assembling
// configurations mechanically detect it with errors.As.
type ConfigError struct {
	Field  string
	Reason string
}

// Error renders the rejection.
func (e *ConfigError) Error() string {
	return fmt.Sprintf("machine: config %s: %s", e.Field, e.Reason)
}

// CellLogic supplies word values so workloads can verify end-to-end
// arithmetic (e.g. the FIR outputs of Fig 2). Calls follow program
// order per cell: OnRead when a read completes, Produce when a write
// issues. Implementations may keep per-cell registers.
type CellLogic interface {
	// OnRead observes the index-th word (0-based) of msg arriving at
	// cell.
	OnRead(cell model.CellID, msg model.MessageID, index int, w Word)
	// Produce returns the value of the index-th word (0-based) of msg,
	// written by cell.
	Produce(cell model.CellID, msg model.MessageID, index int) Word
}

// SyntheticLogic is the default CellLogic: word i of message m carries
// the value m*1e6 + i, so transport bugs (reordering, loss,
// cross-wiring) are detectable without workload semantics.
type SyntheticLogic struct{}

// OnRead is a no-op.
func (SyntheticLogic) OnRead(model.CellID, model.MessageID, int, Word) {}

// Produce encodes (message, index).
func (SyntheticLogic) Produce(_ model.CellID, msg model.MessageID, index int) Word {
	return Word(float64(msg)*1e6 + float64(index))
}

// BindEvent is one timeline entry: a queue bound to or released from a
// message.
type BindEvent struct {
	Cycle int
	Link  topology.LinkID
	// QueueIdx indexes the queue within its link: 0..Q-1 for the
	// shared pool, 0..2Q-1 under DirectionalPools (forward pool
	// first, then reverse), so (Link, QueueIdx) is always unique.
	QueueIdx int
	Msg      model.MessageID
	Bound    bool // true = bound, false = released
}

// CellBlock describes why a cell was stuck when a deadlock was
// detected.
type CellBlock struct {
	Cell   model.CellID
	Op     model.Op
	OpIdx  int
	Reason string
}

// QueueStat pairs a queue's identity with its counters.
type QueueStat struct {
	Link     topology.LinkID
	QueueIdx int
	Stats    queue.Stats
}

// Stats aggregates run counters.
type Stats struct {
	Cycles     int
	WordsMoved int // total hop traversals (incl. final reads)
	Grants     int
	Releases   int
	// GatedOps counts operations that were ready by every fault-free
	// criterion but were held back by a fault gate that cycle. Zero on
	// unfaulted runs; under faults it is the run's stall-pressure
	// measure, identical across engines.
	GatedOps      int
	BlockedCycles []int // per cell: cycles spent with a stalled op
	Queues        []QueueStat
}

// Result reports a run's outcome.
type Result struct {
	// Exactly one of Completed, Deadlocked, TimedOut is true.
	Completed  bool
	Deadlocked bool
	TimedOut   bool
	Cycles     int
	// Received holds, per message, the words observed by the
	// receiver in arrival order (length == Words on completion).
	Received [][]Word
	// Blocked describes stuck cells when Deadlocked.
	Blocked []CellBlock
	// Faults lists the active (non-no-op) faults of the run's
	// FaultPlan in canonical spec form; nil on fault-free runs.
	Faults []string
	// Timeline is non-nil when ExecOptions.RecordTimeline.
	Timeline []BindEvent
	Stats    Stats
}

// Outcome returns "completed", "deadlocked" or "timed-out".
func (r *Result) Outcome() string {
	switch {
	case r.Completed:
		return "completed"
	case r.Deadlocked:
		return "deadlocked"
	default:
		return "timed-out"
	}
}

// DescribeBlocked renders a deadlock report, one line per stuck cell.
func DescribeBlocked(p *model.Program, blocked []CellBlock) string {
	var b []byte
	for _, cb := range blocked {
		b = append(b, fmt.Sprintf("%s stuck at %s: %s\n", p.Cell(cb.Cell).Name, p.OpString(cb.Op), cb.Reason)...)
	}
	return string(b)
}

// ExecOptions parameterizes one run of a compiled machine. Everything
// the compile step could not fix — queue budgets, capacities, the
// policy instance, logic — is chosen here, so one machine serves an
// entire policy × queues × capacity grid.
type ExecOptions struct {
	// Policy decides queue bindings. Required; instances are stateful
	// and must not be shared between concurrent runs.
	Policy assign.Policy
	// QueuesPerLink is the fixed number of queues on every link
	// (§2.3). Must be ≥ 1.
	QueuesPerLink int
	// Capacity is each queue's base capacity in words. 0 models the
	// paper's unbuffered latch: transfers happen only as same-cycle
	// rendezvous, which restricts every route to a single hop.
	Capacity int
	// ExtCapacity and ExtPenalty model the iWarp queue extension
	// (§8.1): extra buffering beyond Capacity at ExtPenalty additional
	// cycles per extension access.
	ExtCapacity int
	ExtPenalty  int
	// DirectionalPools splits every link's queue pool in two, one per
	// traffic direction (§2.3 note).
	DirectionalPools bool
	// Logic supplies word values; nil means SyntheticLogic.
	Logic CellLogic
	// MaxCycles bounds the run; ≤ 0 means a default derived from
	// program size (guarded against integer overflow).
	MaxCycles int
	// RecordTimeline captures bind/release events for rendering
	// (Fig 7's lower half).
	RecordTimeline bool
	// Faults degrades the array for this run: slowed or dead cells,
	// throttled or severed links (see internal/fault). nil (or a
	// no-op plan) runs the perfect array, byte-identically to a run
	// with no plan at all. Faults are per-run, like queue budgets:
	// one compiled machine serves faulted and fault-free runs alike.
	Faults *fault.Plan
	// LinkModel retimes the interconnect for this run: each link serves
	// the words that crossed it in a cycle and then stays busy for a
	// model-determined window (fixed per-link latency/bandwidth, or
	// congestion-sensitive backpressure — see internal/linkmodel). nil
	// (or a unit plan) keeps the paper's unit-latency links,
	// byte-identically to a run with no model at all. Like Faults, the
	// model is per-run: one compiled machine serves every timing.
	LinkModel *linkmodel.Plan
	// Context, when non-nil, cancels the run between cycles: Run
	// returns a wrapped context error instead of a Result. A nil
	// Context never cancels.
	Context context.Context
}

// packedOp is one statement of a cell program as the compiled stream
// stores it: the message id in the upper 31 bits and the kind in bit 0
// (model.Read = 0, model.Write = 1). Four bytes against model.Op's
// sixteen is the point: every issuing cell fetches its next op every
// cycle from its own place in the stream, so the stream's size is the
// scheduler's cache footprint on a busy array. "Is the front op
// R(id)?" is one compare against readOf(id).
type packedOp uint32

//sysvet:hotpath
func packOp(op model.Op) packedOp { return packedOp(op.Msg)<<1 | packedOp(op.Kind) }

// readOf and writeOf are the packed forms of R(id) and W(id).
//
//sysvet:hotpath
func readOf(id model.MessageID) packedOp { return packedOp(id) << 1 }

//sysvet:hotpath
func writeOf(id model.MessageID) packedOp { return packedOp(id)<<1 | 1 }

//sysvet:hotpath
func (o packedOp) isWrite() bool { return o&1 != 0 }

//sysvet:hotpath
func (o packedOp) msg() model.MessageID { return model.MessageID(o >> 1) }

// op rebuilds the model form, for reports.
func (o packedOp) op() model.Op {
	return model.Op{Kind: model.OpKind(o & 1), Msg: o.msg()}
}

// checkIRBounds rejects a scenario whose flat IR would not fit its
// index types: opOff, hopOff and wordOff are int32 prefix sums, and a
// packed op has 31 bits for the message id. The totals are checked as
// ints before any table is allocated, so an oversized scenario is a
// typed error rather than a silently wrapped offset.
func checkIRBounds(ops, hops, words, msgs int) error {
	for _, b := range []struct {
		field, what string
		n           int
	}{
		{"Program", "ops", ops},
		{"Routes", "route hops", hops},
		{"Program", "message words", words},
		{"Program", "messages", msgs},
	} {
		if b.n > math.MaxInt32 {
			return &ConfigError{Field: b.field, Reason: fmt.Sprintf("%d %s exceed the compiled form's limit of %d", b.n, b.what, math.MaxInt32)}
		}
	}
	return nil
}

// hopRef is one compiled route hop: the physical link plus the queue
// pool serving it under each pool regime (index 0 = shared pool,
// index 1 = directional pools).
type hopRef struct {
	link topology.LinkID
	pool [2]int32
}

// poolTable is the per-regime pool layout: competing sets and, when
// labels exist, the label-sorted grant order, computed once per
// machine — the shared regime's by Compile, the directional one's by
// its first run — so every run (and every policy Setup) shares them
// read-only.
type poolTable struct {
	numPools int
	// competingByPool is each pool's competing set, in ascending
	// message id, the form assign.Context.CompetingByPool documents.
	competingByPool [][]model.MessageID
	// labelOrder is each pool's competing set sorted by (label,
	// message id); nil when the machine was compiled without labels.
	labelOrder [][]model.MessageID
}

// binds reports whether queue slot i of a run with q queues per pool can
// ever be bound: a pool binds its lowest free queue, each to one hop of
// its competing set, so it never reaches past that many queues.
func (tbl *poolTable) binds(i, q int) bool {
	return i%q < len(tbl.competingByPool[i/q])
}

// Machine is the immutable compiled form of one analyzed scenario.
// Compile it once; Run it as many times as the parameter grid needs,
// concurrently if desired.
type Machine struct {
	prog   *model.Program
	topo   topology.Topology
	routes [][]topology.Hop
	labels []int
	links  []topology.Link

	// Flat per-cell op streams: cell c's code is ops[opOff[c]:opOff[c+1]].
	ops   []packedOp
	opOff []int32

	// Flat per-message hop tables: message m's hops are
	// hops[hopOff[m]:hopOff[m+1]].
	hops   []hopRef
	hopOff []int32

	words            []int   // per message: declared word count
	wordOff          []int32 // prefix sums of words: arena offsets for received words
	sender, receiver []model.CellID

	totalWords, totalHops int
	maxWords              int // the largest message's word count: the most a bound queue holds
	maxRouteLen           int
	multiHopMsg           model.MessageID // first msg with a multi-hop route; -1 if none
	codeCells             int             // cells with a non-empty op stream

	// shared is the §2.3 regime, built by Compile. directional splits
	// every link's pool by direction; dirOnce builds it for the first
	// run that sets DirectionalPools, since nothing else reads it.
	shared, directional poolTable
	dirOnce             sync.Once
}

// execs is the process's run scratch: every Machine.Run and every Exec
// borrows its *exec here. An exec carries no machine between borrows
// (release drops the reference), and init resizes every table for the
// machine it is handed, so one pool serves machines of any shape.
var execs = sync.Pool{New: func() any { return new(exec) }}

// borrowExec takes an exec from the pool. reuse marks a batch exec,
// whose Result buffers are its own (see exec.reuse).
func borrowExec(reuse bool) *exec {
	e := execs.Get().(*exec)
	e.reuse = reuse
	return e
}

// returnExec drops e's run references and gives it back to the pool.
func returnExec(e *exec) {
	e.release()
	execs.Put(e)
}

// Compile lowers a validated program over a topology into the flat
// machine IR. routes may be nil (they are computed); when provided
// they must be indexed by message id and match the topology. labels
// (dense, per message) are optional; without them label-ordered
// policies refuse to Setup, exactly as before.
func Compile(p *model.Program, t topology.Topology, routes [][]topology.Hop, labels []int) (*Machine, error) {
	if p == nil {
		return nil, &ConfigError{Field: "Program", Reason: "nil program"}
	}
	if t == nil {
		return nil, &ConfigError{Field: "Topology", Reason: "nil topology"}
	}
	if routes == nil {
		var err error
		routes, err = topology.Routes(p, t)
		if err != nil {
			return nil, err
		}
	} else if len(routes) != p.NumMessages() {
		return nil, &ConfigError{Field: "Routes", Reason: fmt.Sprintf("%d entries for %d messages", len(routes), p.NumMessages())}
	}
	if labels != nil && len(labels) != p.NumMessages() {
		return nil, &ConfigError{Field: "Labels", Reason: fmt.Sprintf("%d labels for %d messages", len(labels), p.NumMessages())}
	}

	cells, msgs := p.NumCells(), p.NumMessages()
	totalOps := p.TotalOps()
	var totalHops, totalWords int
	for _, rt := range routes {
		totalHops += len(rt)
	}
	maxWords := 0
	for _, decl := range p.Messages() {
		totalWords += decl.Words
		maxWords = max(maxWords, decl.Words)
	}
	if err := checkIRBounds(totalOps, totalHops, totalWords, msgs); err != nil {
		return nil, err
	}

	m := &Machine{
		prog:        p,
		topo:        t,
		routes:      routes,
		labels:      labels,
		links:       t.Links(),
		totalWords:  totalWords,
		totalHops:   totalHops,
		maxWords:    maxWords,
		multiHopMsg: -1,
	}

	// Per-cell op streams, packed.
	m.opOff = make([]int32, cells+1)
	m.ops = make([]packedOp, 0, totalOps)
	for c := 0; c < cells; c++ {
		code := p.Code(model.CellID(c))
		for _, op := range code {
			m.ops = append(m.ops, packOp(op))
		}
		m.opOff[c+1] = int32(len(m.ops))
		if len(code) > 0 {
			m.codeCells++
		}
	}

	// Per-message declarations and hop tables with precomputed pool
	// ids for both pool regimes.
	m.words = make([]int, msgs)
	m.sender = make([]model.CellID, msgs)
	m.receiver = make([]model.CellID, msgs)
	m.hopOff = make([]int32, msgs+1)
	m.wordOff = make([]int32, msgs+1)
	for _, decl := range p.Messages() {
		m.words[decl.ID] = decl.Words
		m.sender[decl.ID] = decl.Sender
		m.receiver[decl.ID] = decl.Receiver
	}
	for id := 0; id < msgs; id++ {
		m.wordOff[id+1] = m.wordOff[id] + int32(m.words[id])
	}
	for id, rt := range routes {
		m.hopOff[id+1] = m.hopOff[id] + int32(len(rt))
		if len(rt) > m.maxRouteLen {
			m.maxRouteLen = len(rt)
		}
		if len(rt) > 1 && m.multiHopMsg < 0 {
			m.multiHopMsg = model.MessageID(id)
		}
	}
	m.hops = make([]hopRef, m.totalHops)
	for id, rt := range routes {
		off := m.hopOff[id]
		for i, h := range rt {
			dir := int32(0)
			if h.From != m.links[h.Link].A {
				dir = 1
			}
			m.hops[off+int32(i)] = hopRef{
				link: h.Link,
				pool: [2]int32{int32(h.Link), 2*int32(h.Link) + dir},
			}
		}
	}

	m.shared = m.buildPoolTable(0, len(m.links))
	return m, nil
}

// buildPoolTable derives one regime's competing sets (each in
// message-ascending order, the order the per-run construction used to
// append them in) and, when labels exist, the label-sorted grant order.
// Both are count-then-fill over one backing array each: a pool's set is
// a segment of it, so the table costs a handful of allocations however
// many pools there are. A pool no route crosses keeps a nil entry.
func (m *Machine) buildPoolTable(flavor, numPools int) poolTable {
	// end[p] starts as the beginning of pool p's segment and the fill
	// advances it to the segment's end.
	end := make([]int32, numPools+1)
	for i := range m.hops {
		end[m.hops[i].pool[flavor]+1]++
	}
	for pool := 0; pool < numPools; pool++ {
		end[pool+1] += end[pool]
	}
	byMessage := make([]model.MessageID, len(m.hops))
	for id := range m.routes {
		for _, h := range m.msgHops(model.MessageID(id)) {
			pool := h.pool[flavor]
			byMessage[end[pool]] = model.MessageID(id)
			end[pool]++
		}
	}
	tbl := poolTable{
		numPools:        numPools,
		competingByPool: make([][]model.MessageID, numPools),
	}
	var byLabel []model.MessageID
	if m.labels != nil {
		byLabel = slices.Clone(byMessage)
		tbl.labelOrder = make([][]model.MessageID, numPools)
	}
	byLabelThenID := func(a, b model.MessageID) int {
		if c := cmp.Compare(m.labels[a], m.labels[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	}
	start := int32(0)
	for pool := 0; pool < numPools; pool++ {
		lo, hi := start, end[pool]
		start = hi
		if lo == hi {
			continue
		}
		msgs := byMessage[lo:hi:hi]
		tbl.competingByPool[pool] = msgs
		if byLabel != nil {
			sorted := byLabel[lo:hi:hi]
			slices.SortFunc(sorted, byLabelThenID)
			tbl.labelOrder[pool] = sorted
		}
	}
	return tbl
}

// code returns cell c's op stream.
func (m *Machine) code(c int) []packedOp {
	return m.ops[m.opOff[c]:m.opOff[c+1]]
}

// msgHops returns message id's compiled hop table.
func (m *Machine) msgHops(id model.MessageID) []hopRef {
	return m.hops[m.hopOff[id]:m.hopOff[id+1]]
}

// maxQueueSlots bounds a run's queues over all its pools, pools ×
// QueuesPerLink. Every queue's state is allocated when the run starts,
// so without a bound one request could ask for more memory than the
// process can get, an unrecoverable failure; at the bound a run holds
// about 200 MB. No committed test, example or perf workload comes
// within 50× of it.
const maxQueueSlots = 1 << 20

// prepare validates opts, applies defaults (Logic, MaxCycles), and
// resolves the pool regime plus the lowered fault and link-timing
// tables. The queue-slot bound is checked on the regime's pool count
// (one pool per link, or two) before the directional table is built,
// so a refused configuration builds nothing. It is the shared front
// half of Run and Exec.Run, so both reject configurations with
// identical errors, and the one place a run's options are validated:
// core.Execute checks only what needs the analysis and leaves every
// other option to this ConfigError.
func (m *Machine) prepare(opts *ExecOptions) (maxCycles int, tbl *poolTable, flavor int, flt *fault.Lowered, lm *linkmodel.Lowered, err error) {
	if opts.Policy == nil {
		return 0, nil, 0, nil, nil, &ConfigError{Field: "Policy", Reason: "nil policy"}
	}
	if opts.QueuesPerLink < 1 {
		return 0, nil, 0, nil, nil, &ConfigError{Field: "QueuesPerLink", Reason: fmt.Sprintf("%d < 1 (every link needs at least one queue, §2.3)", opts.QueuesPerLink)}
	}
	if opts.Capacity < 0 {
		return 0, nil, 0, nil, nil, &ConfigError{Field: "Capacity", Reason: fmt.Sprintf("negative capacity %d", opts.Capacity)}
	}
	if opts.ExtCapacity < 0 {
		return 0, nil, 0, nil, nil, &ConfigError{Field: "ExtCapacity", Reason: fmt.Sprintf("negative extension capacity %d", opts.ExtCapacity)}
	}
	if opts.ExtPenalty < 0 {
		return 0, nil, 0, nil, nil, &ConfigError{Field: "ExtPenalty", Reason: fmt.Sprintf("negative extension penalty %d", opts.ExtPenalty)}
	}
	if opts.Capacity > math.MaxInt-opts.ExtCapacity {
		return 0, nil, 0, nil, nil, &ConfigError{Field: "Capacity", Reason: fmt.Sprintf("capacity %d plus extension %d overflows", opts.Capacity, opts.ExtCapacity)}
	}
	if opts.Capacity == 0 {
		if m.multiHopMsg >= 0 {
			return 0, nil, 0, nil, nil, &ConfigError{Field: "Capacity", Reason: fmt.Sprintf(
				"capacity 0 (latch) supports single-hop routes only; message %s crosses %d links",
				m.prog.Message(m.multiHopMsg).Name, len(m.routes[m.multiHopMsg]))}
		}
		if opts.ExtCapacity > 0 {
			return 0, nil, 0, nil, nil, &ConfigError{Field: "ExtCapacity", Reason: "queue extension requires base capacity ≥ 1"}
		}
	}
	if ferr := opts.Faults.Validate(m.prog.NumCells(), len(m.links)); ferr != nil {
		return 0, nil, 0, nil, nil, &ConfigError{Field: "Faults", Reason: ferr.Error()}
	}
	if lerr := opts.LinkModel.Validate(len(m.links)); lerr != nil {
		return 0, nil, 0, nil, nil, &ConfigError{Field: "LinkModel", Reason: lerr.Error()}
	}
	flt = fault.Lower(opts.Faults, m.prog.NumCells(), len(m.links))
	lm = linkmodel.Lower(opts.LinkModel, len(m.links))
	if opts.Logic == nil {
		opts.Logic = SyntheticLogic{}
	}
	maxCycles = opts.MaxCycles
	if maxCycles <= 0 {
		// A user-set MaxCycles is never second-guessed.
		maxCycles, err = maxCyclesFor(m.totalWords, m.totalHops, lm.MaxFactor(), flt.MaxFactor())
		if err != nil {
			return 0, nil, 0, nil, nil, err
		}
	}
	tbl, pools := &m.shared, len(m.links)
	if opts.DirectionalPools {
		tbl, pools, flavor = &m.directional, 2*len(m.links), 1
	}
	if pools > 0 && opts.QueuesPerLink > maxQueueSlots/pools {
		return 0, nil, 0, nil, nil, &ConfigError{Field: "QueuesPerLink", Reason: fmt.Sprintf(
			"%d queues on each of %d pools exceed the %d queue slots a run may hold", opts.QueuesPerLink, pools, maxQueueSlots)}
	}
	if flavor == 1 {
		m.dirOnce.Do(func() { m.directional = m.buildPoolTable(1, pools) })
	}
	return maxCycles, tbl, flavor, flt, lm, nil
}

// runExec drives one prepared run on e: init, policy setup, the
// scheduler loop. On success the caller harvests e.result(); on error
// e can be released or reused.
func (m *Machine) runExec(e *exec, opts *ExecOptions, tbl *poolTable, flavor, maxCycles int, flt *fault.Lowered, lm *linkmodel.Lowered) error {
	e.init(m, opts, tbl, flavor, flt, lm)
	e.ctx = assign.Context{
		Program:         m.prog,
		Routes:          m.routes,
		CompetingByPool: tbl.competingByPool,
		LabelOrder:      tbl.labelOrder,
		Labels:          m.labels,
		QueuesPerLink:   opts.QueuesPerLink,
	}
	if err := opts.Policy.Setup(&e.ctx); err != nil {
		return err
	}
	e.run(maxCycles)
	if e.cancelled {
		return fmt.Errorf("machine: run cancelled after %d cycles: %w", e.now, context.Cause(opts.Context))
	}
	return nil
}

// Run simulates the compiled program to completion, deadlock, or the
// cycle bound under one configuration. It returns an error only for
// configuration problems; run-time deadlock is a Result, not an
// error. Run is safe for concurrent use.
func (m *Machine) Run(opts ExecOptions) (*Result, error) {
	maxCycles, tbl, flavor, flt, lm, err := m.prepare(&opts)
	if err != nil {
		return nil, err
	}
	// No defer: an exec a panicking run abandons mid-cycle stays out of
	// the pool.
	e := borrowExec(false)
	if err := m.runExec(e, &opts, tbl, flavor, maxCycles, flt, lm); err != nil {
		returnExec(e)
		return nil, err
	}
	out := new(Result)
	*out = e.result()
	returnExec(e)
	return out, nil
}
