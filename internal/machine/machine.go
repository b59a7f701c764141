// Package machine is the compile-once execution core: it lowers an
// analyzed scenario (program, topology, routes, labels) into a flat,
// index-based intermediate representation — per-cell op streams,
// per-hop links, precomputed competing sets — that one Compile call
// produces and unlimited Run calls consume. Each link has one pool of
// queues serving both directions, as §2.3 has it, so a pool id is its
// link id.
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
// safe for concurrent Run calls. A run's scratch —
// queue instances, per-message hop state, ready sets, rings — belongs
// to the process, not to a machine: one sync.Pool of execution
// contexts feeds every Run and every Exec, and exec.init sizes each
// table from the machine at hand, so a context warmed by any machine
// serves any other and a newly compiled machine's first run allocates
// only what its Result keeps. Run borrows a context, hands the Result
// the buffers it aliases and returns the context before it returns; an
// Exec holds one until Release; a context whose queue table outgrew
// maxPooledQueueSlots is dropped, not pooled.
//
// The scheduler is cycle-for-cycle equivalent to the reference
// full-scan engine kept in internal/refsim; the equivalence suite there
// replays the fuzz corpus plus hundreds of generated scenarios through
// both and demands byte-identical Results. The two engines share what
// is stated here once — which run options are accepted (CheckOptions)
// and how a stall cause is worded (CellBlock.Reason) — and keep
// independent what the suite checks: the cause each engine picks for a
// stuck cell from its own state, and the default cycle bound.
package machine

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"strconv"
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
	// QueueIdx indexes the queue within its link's pool, 0..Q-1, so
	// (Link, QueueIdx) is unique.
	QueueIdx int
	Msg      model.MessageID
	Bound    bool // true = bound, false = released
}

// StallCause is why a cell could not issue its front op at a
// deadlock. A write waits on the queue of its message's first link, a
// read on the queue of its last link (§2.3), and each either has no
// queue granted yet (§7's grant rule) or has one that cannot move a
// word: four causes in all.
type StallCause uint8

const (
	// StallNoFirstQueue: a write whose message holds no queue on its
	// first link.
	StallNoFirstQueue StallCause = iota
	// StallQueueFull: a write whose first-link queue is full and never
	// drains.
	StallQueueFull
	// StallNoLastQueue: a read whose message holds no queue on its last
	// link.
	StallNoLastQueue
	// StallNoWord: a read whose last-link queue is bound but empty.
	StallNoWord
)

// CellBlock describes why a cell was stuck when a deadlock was
// detected. Each engine picks Cause from its own state; Reason words it.
// An engine stores the cause, never a string, so a warm batch Exec
// that runs into a deadlock again allocates nothing for its report.
type CellBlock struct {
	Cell  model.CellID
	Op    model.Op
	OpIdx int
	Cause StallCause
	// Capacity is the base queue capacity a StallQueueFull report
	// names; 0 for every other cause.
	Capacity int
}

// Reason renders the block's cause as the deadlock report words it.
// Plain concatenation rather than fmt: a deadlocked sweep point's
// report renders one per stuck cell.
func (cb CellBlock) Reason(p *model.Program) string {
	name := p.Message(cb.Op.Msg).Name
	switch cb.Cause {
	case StallNoFirstQueue:
		return "no queue bound for " + name + " on its first link"
	case StallQueueFull:
		return "queue for " + name + " is full (capacity " + strconv.Itoa(cb.Capacity) + ") and the downstream never drains"
	case StallNoLastQueue:
		return "no queue bound for " + name + " on its last link"
	}
	return "no word of " + name + " has arrived"
}

// QueueStat pairs a queue's identity with its counters.
type QueueStat struct {
	Link     topology.LinkID
	QueueIdx int
	Stats    queue.Stats
}

// Stats aggregates run counters.
type Stats struct {
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
		b = append(b, fmt.Sprintf("%s stuck at %s: %s\n", p.Cell(cb.Cell).Name, p.OpString(cb.Op), cb.Reason(p))...)
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

func packOp(op model.Op) packedOp { return packedOp(op.Msg)<<1 | packedOp(op.Kind) }

// readOf and writeOf are the packed forms of R(id) and W(id).
func readOf(id model.MessageID) packedOp { return packedOp(id) << 1 }

func writeOf(id model.MessageID) packedOp { return packedOp(id)<<1 | 1 }

func (o packedOp) isWrite() bool { return o&1 != 0 }

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

// poolTable is the pool layout, one pool per link: competing sets
// and, when labels exist, the label-sorted grant order, computed once
// by Compile so every run (and every policy Setup) shares them
// read-only.
type poolTable struct {
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

	// Flat per-message hop tables: message m's route crosses links
	// hops[hopOff[m]:hopOff[m+1]], and each hop is served by its
	// link's pool.
	hops   []topology.LinkID
	hopOff []int32

	words            []int   // per message: declared word count
	wordOff          []int32 // prefix sums of words: arena offsets for received words
	sender, receiver []model.CellID

	totalWords, totalHops int
	maxWords              int // the largest message's word count: the most a bound queue holds
	maxRouteLen           int
	multiHopMsg           model.MessageID // first msg with a multi-hop route; -1 if none
	codeCells             int             // cells with a non-empty op stream

	pools poolTable // built by Compile, read-only after
}

// execs is the process's run scratch: every Machine.Run and every Exec
// borrows its *exec here. An exec carries no machine between borrows
// (release drops the reference), and init resizes every table for the
// machine it is handed, so one pool serves machines of any shape.
var execs = sync.Pool{New: func() any { return new(exec) }}

// borrowExec takes an exec from the pool.
func borrowExec() *exec { return execs.Get().(*exec) }

// returnExec drops e's run references and gives it back to the pool,
// unless its queue table is too large to keep (see pooled).
func returnExec(e *exec) {
	e.release()
	if e.pooled() {
		execs.Put(e)
	}
}

// pooled reports whether e may go back to the pool. Tables never
// shrink, and every run and every machine may be served by this exec
// next, so one run at a huge QueuesPerLink would otherwise keep its
// queue table alive for every small run after it.
func (e *exec) pooled() bool {
	return cap(e.queues) <= maxPooledQueueSlots
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

	// Per-message declarations and hop tables.
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
	m.hops = make([]topology.LinkID, 0, m.totalHops)
	for _, rt := range routes {
		for _, h := range rt {
			m.hops = append(m.hops, h.Link)
		}
	}

	m.pools = m.buildPoolTable()
	return m, nil
}

// buildPoolTable derives every link's competing set (each in
// message-ascending order, the order the per-run construction used to
// append them in) and, when labels exist, the label-sorted grant order.
// Both are count-then-fill over one backing array each: a pool's set is
// a segment of it, so the table costs a handful of allocations however
// many pools there are. A pool no route crosses keeps a nil entry.
func (m *Machine) buildPoolTable() poolTable {
	numPools := len(m.links)
	// end[p] starts as the beginning of pool p's segment and the fill
	// advances it to the segment's end.
	end := make([]int32, numPools+1)
	for _, pool := range m.hops {
		end[pool+1]++
	}
	for pool := 0; pool < numPools; pool++ {
		end[pool+1] += end[pool]
	}
	byMessage := make([]model.MessageID, len(m.hops))
	for id := range m.routes {
		for _, pool := range m.msgHops(model.MessageID(id)) {
			byMessage[end[pool]] = model.MessageID(id)
			end[pool]++
		}
	}
	tbl := poolTable{
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
func (m *Machine) msgHops(id model.MessageID) []topology.LinkID {
	return m.hops[m.hopOff[id]:m.hopOff[id+1]]
}

// maxQueueSlots bounds a run's queues over all its links, links ×
// QueuesPerLink. Every queue's state is allocated when the run starts,
// so without a bound one request could ask for more memory than the
// process can get, an unrecoverable failure; at the bound a run holds
// about 200 MB. No committed test, example or perf workload comes
// within 50× of it.
const maxQueueSlots = 1 << 20

// maxPooledQueueSlots bounds the queue table an exec keeps when it goes
// back to the pool: a larger one (up to maxQueueSlots, about 160 MB of
// queue state) is left to the collector. The queue table is the one
// table a run option sizes; every other table scales with the compiled
// machine its caller already holds. 2¹⁶ slots are about 10 MB, 16× the
// largest queue table of any perf workload (3 999 slots, the 4000-cell
// sort of run-sparse), so no benchmark run is ever dropped.
const maxPooledQueueSlots = 1 << 16

// CheckOptions is the one statement of which run options a scenario
// accepts; it reads opts and changes nothing. Both engines call it —
// prepare with the compiled machine's fields, the reference engine in
// internal/refsim with its own — so both refuse a configuration with
// the same ConfigError. routes are the scenario's, indexed by message
// id; links is its link count; multiHop is the first message whose
// route crosses more than one link, or -1 if none, so a caller that
// checks once per grid point need not scan the routes.
func CheckOptions(opts *ExecOptions, p *model.Program, routes [][]topology.Hop, links int, multiHop model.MessageID) error {
	if opts.Policy == nil {
		return &ConfigError{Field: "Policy", Reason: "nil policy"}
	}
	if opts.QueuesPerLink < 1 {
		return &ConfigError{Field: "QueuesPerLink", Reason: fmt.Sprintf("%d < 1 (every link needs at least one queue, §2.3)", opts.QueuesPerLink)}
	}
	if opts.Capacity < 0 {
		return &ConfigError{Field: "Capacity", Reason: fmt.Sprintf("negative capacity %d", opts.Capacity)}
	}
	if opts.ExtCapacity < 0 {
		return &ConfigError{Field: "ExtCapacity", Reason: fmt.Sprintf("negative extension capacity %d", opts.ExtCapacity)}
	}
	if opts.ExtPenalty < 0 {
		return &ConfigError{Field: "ExtPenalty", Reason: fmt.Sprintf("negative extension penalty %d", opts.ExtPenalty)}
	}
	if opts.Capacity > math.MaxInt-opts.ExtCapacity {
		return &ConfigError{Field: "Capacity", Reason: fmt.Sprintf("capacity %d plus extension %d overflows", opts.Capacity, opts.ExtCapacity)}
	}
	if opts.Capacity == 0 {
		if multiHop >= 0 {
			return &ConfigError{Field: "Capacity", Reason: fmt.Sprintf(
				"capacity 0 (latch) supports single-hop routes only; message %s crosses %d links",
				p.Message(multiHop).Name, len(routes[multiHop]))}
		}
		if opts.ExtCapacity > 0 {
			return &ConfigError{Field: "ExtCapacity", Reason: "queue extension requires base capacity ≥ 1"}
		}
	}
	if err := opts.Faults.Validate(p.NumCells(), links); err != nil {
		return &ConfigError{Field: "Faults", Reason: err.Error()}
	}
	if err := opts.LinkModel.Validate(links); err != nil {
		return &ConfigError{Field: "LinkModel", Reason: err.Error()}
	}
	if links > 0 && opts.QueuesPerLink > maxQueueSlots/links {
		return &ConfigError{Field: "QueuesPerLink", Reason: fmt.Sprintf(
			"%d queues on each of %d pools exceed the %d queue slots a run may hold", opts.QueuesPerLink, links, maxQueueSlots)}
	}
	return nil
}

// prepare checks opts (CheckOptions) and applies defaults (Logic,
// MaxCycles). It is the front half of Exec.Run, and so of Run; the
// fault and link-timing plans are lowered by exec.init, into tables
// the exec keeps. core.Execute checks only what needs the analysis and
// leaves every other option to this ConfigError. The derived cycle
// bound is the machine's own, stretched by the plans' MaxFactor: the
// reference engine derives it independently.
func (m *Machine) prepare(opts *ExecOptions) (maxCycles int, err error) {
	if err := CheckOptions(opts, m.prog, m.routes, len(m.links), m.multiHopMsg); err != nil {
		return 0, err
	}
	if opts.Logic == nil {
		opts.Logic = SyntheticLogic{}
	}
	maxCycles = opts.MaxCycles
	if maxCycles <= 0 {
		// A user-set MaxCycles is never second-guessed.
		return maxCyclesFor(m.totalWords, m.totalHops, opts.LinkModel.MaxFactor(len(m.links)), opts.Faults.MaxFactor())
	}
	return maxCycles, nil
}

// Run simulates the compiled program to completion, deadlock, or the
// cycle bound under one configuration. It returns an error only for
// configuration problems; run-time deadlock is a Result, not an
// error. Run is safe for concurrent use: it is a one-run Exec whose
// exec hands the Result its buffers (see exec.handOver) before going
// back to the pool.
func (m *Machine) Run(opts ExecOptions) (*Result, error) {
	ex := Exec{m: m}
	res, err := ex.Run(opts)
	// No defer: an exec a panicking run abandons mid-cycle stays out of
	// the pool.
	if ex.e != nil {
		if err == nil {
			ex.e.handOver(res)
		}
		returnExec(ex.e)
	}
	if err != nil {
		return nil, err
	}
	out := *res
	return &out, nil
}
