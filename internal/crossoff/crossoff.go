// Package crossoff implements the paper's crossing-off procedure (§3):
// the compile-time analysis that decides whether a systolic program is
// deadlock-free, plus the lookahead variant of §8.1 that credits queue
// buffering.
//
// An executable pair is a W(X) and an R(X) that are both the next
// unexecuted ("front") statement of their cell programs. The procedure
// repeatedly crosses executable pairs off; a program is deadlock-free
// iff every operation can be crossed off.
//
// With lookahead enabled, the W or R of a pair may be located past
// leading *write* operations only (rule R1), and for each located pair
// the number of skipped writes to any message must not exceed that
// message's buffering budget — "the total size of the queues that the
// message will cross" (rule R2). Skipped writes stay in the program and
// are crossed later, which is exactly the paper's model of words parked
// in queue buffers.
//
// A pass keeps the executable pairs up to date incrementally and
// allocates what the program's size determines up front: a cursor per
// cell, a candidate slot per message, and for Run alone the pick order.
// Strict rules cross only fronts, so the cursors are the whole crossed
// state and a crossed pair can only enable the messages at its two new
// fronts — one admission check each, O(ops·log messages) per run with
// the default picker's heap; Schedule runs on the same tracker.
// Lookahead adds a crossed flag per op, re-examines the messages of the
// pair's two cells, O(degree) per pair, and locates the picked pair's
// skips again into one buffer that only Run's order copies out. The
// analysis makes one such pass without the order (Verdict, see
// label.Run); Options.Observer is where the §6 labeler rides along.
package crossoff

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"systolic/internal/model"
	"systolic/internal/topology"
)

// Skip records one write operation jumped over while locating a pair
// member under lookahead.
type Skip struct {
	Cell model.CellID
	Idx  int // index into the cell's original op sequence
	Msg  model.MessageID
}

// Pair is one crossed-off executable pair: the write at
// (WriteCell, WriteIdx) matched with the read at (ReadCell, ReadIdx),
// both operations on Msg. Skipped lists the write operations jumped
// over to locate either member (empty without lookahead).
type Pair struct {
	Msg       model.MessageID
	WriteCell model.CellID
	WriteIdx  int
	ReadCell  model.CellID
	ReadIdx   int
	Skipped   []Skip
}

// PairPicker selects which executable pair to cross next when several
// are available, and returns one of candidates. The paper notes the
// choice can matter for queue-use efficiency (§6); it never affects the
// deadlock-free verdict (see the confluence property tests). The slice
// and the pairs' Skipped lists are reused from pick to pick: they are
// valid only during the call.
type PairPicker func(candidates []Pair) Pair

// ByMessageID picks the candidate with the smallest message id,
// breaking ties by write index. It is the deterministic default.
func ByMessageID(candidates []Pair) Pair {
	best := candidates[0]
	for _, c := range candidates[1:] {
		if c.Msg < best.Msg || (c.Msg == best.Msg && c.WriteIdx < best.WriteIdx) {
			best = c
		}
	}
	return best
}

// ByFewestSkips picks the candidate with the fewest skipped writes
// (then smallest message id), a heuristic that keeps buffer pressure
// low under lookahead.
func ByFewestSkips(candidates []Pair) Pair {
	best := candidates[0]
	for _, c := range candidates[1:] {
		if len(c.Skipped) < len(best.Skipped) ||
			(len(c.Skipped) == len(best.Skipped) && c.Msg < best.Msg) {
			best = c
		}
	}
	return best
}

// Options configures a crossing-off run.
type Options struct {
	// Lookahead enables §8.1 lookahead (skip leading writes).
	Lookahead bool
	// Budget returns, for a message, the maximum number of its write
	// operations that may be skipped while locating any single pair
	// (rule R2): the total capacity of the queues the message crosses.
	// nil with Lookahead means unbounded skipping (infinite buffers).
	// Ignored without Lookahead.
	Budget func(model.MessageID) int
	// Picker chooses among executable pairs; nil means ByMessageID.
	Picker PairPicker
	// Observer, if non-nil, is invoked for each pair immediately
	// before it is crossed off. The labeling scheme (§6) hooks in
	// here. The pair's Skipped aliases the pass's skip buffer: it is
	// valid only during the call, so an observer that keeps skips
	// copies them.
	Observer func(Pair)
}

// BlockedOp describes the front operation of a cell that could not be
// crossed off, for deadlock diagnostics.
type BlockedOp struct {
	Cell model.CellID
	Idx  int
	Op   model.Op
}

// Result reports the outcome of a crossing-off run.
type Result struct {
	// DeadlockFree is true iff every operation was crossed off.
	DeadlockFree bool
	// Order lists the pairs in the order they were crossed.
	Order []Pair
	// Blocked lists each unfinished cell's front operation when the
	// procedure stalled (empty if DeadlockFree).
	Blocked []BlockedOp
	// RemainingOps counts operations left uncrossed.
	RemainingOps int
}

// UniformBudget returns a Budget function assigning every message the
// same skip budget.
func UniformBudget(n int) func(model.MessageID) int {
	return func(model.MessageID) int { return n }
}

// BudgetFromRoutes returns the rule-R2 budget implied by per-queue
// capacity and the routes of each message: capacity × hops, "the total
// size of the queues that the message will cross", saturating at MaxInt.
func BudgetFromRoutes(routes [][]topology.Hop, capacity int) func(model.MessageID) int {
	return func(m model.MessageID) int {
		if int(m) < 0 || int(m) >= len(routes) {
			return 0
		}
		if hops := len(routes[m]); hops > 0 && capacity > math.MaxInt/hops {
			return math.MaxInt
		}
		return capacity * len(routes[m])
	}
}

// state tracks crossing progress over a program.
type state struct {
	p    *model.Program
	opts Options
	// cursor is each cell's first uncrossed index, the whole crossed
	// state under the strict rules. Lookahead adds a flag per op (cell
	// c's from off[c]) and the cursor passes crossed ones lazily.
	cursor  []int
	crossed []bool
	off     []int
	left    int
	// skipCount is withinBudget's per-message scratch, all zero between
	// calls; allocated on the first budgeted skip set.
	skipCount []int
	// skips is the one skip buffer of the pass: locate records skipped
	// writes here, a candidate keeps only its two indexes, and the
	// picked pair's skips are located again into it before the
	// observer sees them. Only Run's order copies them out.
	skips   []Skip
	updates int // candidacy checks (admit, update): the pass's clock-free cost, for tests
}

func newState(p *model.Program, opts Options) *state {
	s := &state{p: p, opts: opts, cursor: make([]int, p.NumCells()), left: p.TotalOps()}
	if opts.Lookahead {
		s.off = make([]int, p.NumCells())
		for c := 1; c < len(s.off); c++ {
			s.off[c] = s.off[c-1] + len(p.Code(model.CellID(c-1)))
		}
		s.crossed = make([]bool, s.left)
	}
	return s
}

// advance moves a cell's cursor past crossed ops (strict: none).
func (s *state) advance(c model.CellID) {
	code := s.p.Code(c)
	for s.crossed != nil && s.cursor[c] < len(code) && s.crossed[s.off[c]+s.cursor[c]] {
		s.cursor[c]++
	}
}

// front returns the front op of a cell, if any.
func (s *state) front(c model.CellID) (model.Op, int, bool) {
	s.advance(c)
	code := s.p.Code(c)
	if s.cursor[c] >= len(code) {
		return model.Op{}, 0, false
	}
	return code[s.cursor[c]], s.cursor[c], true
}

// locate finds the earliest uncrossed op of the wanted kind on message
// msg in cell c's program under the lookahead rules. It returns the op
// index and whether it was found within the rules, and appends the
// writes skipped to reach it to s.skips.
func (s *state) locate(c model.CellID, kind model.OpKind, msg model.MessageID) (int, bool) {
	s.advance(c)
	code := s.p.Code(c)
	for i := s.cursor[c]; i < len(code); i++ {
		if s.crossed[s.off[c]+i] {
			continue
		}
		op := code[i]
		if op.Kind == kind && op.Msg == msg {
			return i, true
		}
		if op.Kind == model.Read {
			return 0, false // rule R1: reads are never skipped
		}
		s.skips = append(s.skips, Skip{Cell: c, Idx: i, Msg: op.Msg})
	}
	return 0, false
}

// withinBudget applies rule R2 to a candidate's skip set.
func (s *state) withinBudget(skipped []Skip) bool {
	if !s.opts.Lookahead || s.opts.Budget == nil || len(skipped) == 0 {
		return true
	}
	if s.skipCount == nil {
		s.skipCount = make([]int, s.p.NumMessages())
	}
	ok := true
	for _, sk := range skipped {
		s.skipCount[sk.Msg]++
		if s.skipCount[sk.Msg] > s.opts.Budget(sk.Msg) {
			ok = false
		}
	}
	for _, sk := range skipped {
		s.skipCount[sk.Msg] = 0
	}
	return ok
}

// probe locates message m's executable pair under the lookahead
// rules: the write and read indexes, with the writes skipped to reach
// them in s.skips.
func (s *state) probe(m model.Message) (w, r int, ok bool) {
	s.skips = s.skips[:0]
	if w, ok = s.locate(m.Sender, model.Write, m.ID); !ok {
		return 0, 0, false
	}
	if r, ok = s.locate(m.Receiver, model.Read, m.ID); !ok || !s.withinBudget(s.skips) {
		return 0, 0, false
	}
	return w, r, true
}

// cross marks a pair's two ops as executed. Under the strict rules
// they are the two cells' fronts, so their cursors step past them.
func (s *state) cross(pr Pair) {
	if s.crossed == nil {
		s.cursor[pr.WriteCell]++
		s.cursor[pr.ReadCell]++
	} else {
		s.crossed[s.off[pr.WriteCell]+pr.WriteIdx] = true
		s.crossed[s.off[pr.ReadCell]+pr.ReadIdx] = true
	}
	s.left -= 2
}

// blocked gathers the diagnostic front ops of unfinished cells.
func (s *state) blocked() []BlockedOp {
	var out []BlockedOp
	for c := 0; c < s.p.NumCells(); c++ {
		if op, idx, ok := s.front(model.CellID(c)); ok {
			out = append(out, BlockedOp{Cell: model.CellID(c), Idx: idx, Op: op})
		}
	}
	return out
}

// tracker maintains the candidate set incrementally. Whether message m
// has an executable pair is a pure function of the crossed state of m's
// two endpoint cells, so after crossing a pair only messages incident
// to the pair's write and read cells can gain or lose candidacy —
// everything else is untouched. Under the strict rules it is narrower
// still (see admit): the only messages that can gain candidacy are the
// ones at the two new fronts, and the only one that loses it is the
// crossed message. Strict runs therefore cost one admission check per
// new front whatever the cell degree; lookahead runs rescan the
// incident messages, O(degree) per pair.
//
// A candidate is its write and read indexes only. Under lookahead its
// skipped writes are located again when it is picked, which costs what
// the probe that found it did, and no candidate keeps a list.
type tracker struct {
	s    *state
	msgs []model.Message
	// byCell maps a cell to the indexes into msgs of the messages with
	// that cell as an endpoint; built only for lookahead runs.
	byCell [][]int
	cand   []slot // current candidate per message (valid iff live)
	live   []bool
	// heap orders the live messages for the default picker: every live
	// index is in it at least once, pushed when it turns live; dead and
	// duplicate entries are discarded at pop time against live. nil
	// when a custom picker chooses from slice() instead.
	heap *minHeap
	// pairs and skips back slice(), reused from pick to pick.
	pairs []Pair
	skips []Skip
}

func newTracker(s *state) *tracker {
	t := &tracker{s: s, msgs: s.p.Messages()}
	if s.opts.Picker == nil {
		// Strict runs never hold more entries than messages (a live
		// message stays live until it is popped); lookahead runs may
		// re-push one that a refresh turned dead and live again.
		h := make(minHeap, 0, len(t.msgs))
		t.heap = &h
	}
	if s.opts.Lookahead {
		// Count, then fill: one backing array for every cell's list.
		degree := make([]int, s.p.NumCells())
		for _, m := range t.msgs {
			degree[m.Sender]++
			if m.Receiver != m.Sender {
				degree[m.Receiver]++
			}
		}
		flat := make([]int, 0, 2*len(t.msgs))
		t.byCell = make([][]int, s.p.NumCells())
		for c, d := range degree {
			t.byCell[c] = flat[len(flat) : len(flat) : len(flat)+d]
			flat = flat[:len(flat)+d]
		}
		for i, m := range t.msgs {
			t.byCell[m.Sender] = append(t.byCell[m.Sender], i)
			if m.Receiver != m.Sender {
				t.byCell[m.Receiver] = append(t.byCell[m.Receiver], i)
			}
		}
	}
	t.cand = make([]slot, len(t.msgs))
	t.live = make([]bool, len(t.msgs))
	if s.opts.Lookahead {
		for i := range t.msgs {
			t.update(i)
		}
	} else {
		for c := range s.cursor {
			t.admit(model.CellID(c))
		}
	}
	return t
}

// slot is a candidate pair's write and read index.
type slot struct{ w, r int }

// update recomputes message i's candidacy under the lookahead rules.
func (t *tracker) update(i int) {
	t.s.updates++
	w, r, ok := t.s.probe(t.msgs[i])
	if ok && !t.live[i] && t.heap != nil {
		t.heap.push(i)
	}
	t.cand[i], t.live[i] = slot{w, r}, ok
}

// admit is the strict admission rule: the message at cell c's front
// turns live, its slot the two fronts, iff its other endpoint fronts
// the complementary op on it. A live message stays live until it is
// crossed, as crossing a pair moves only its own two cells' fronts, so
// admit runs for every cell at the start and then for each pair's two.
func (t *tracker) admit(c model.CellID) {
	t.s.updates++
	code, at := t.s.p.Code(c), t.s.cursor[c]
	if at >= len(code) || t.live[code[at].Msg] {
		return
	}
	m := &t.msgs[code[at].Msg]
	other, want := m.Receiver, model.Read // c fronts W(m), so it is m's sender
	if code[at].Kind == model.Read {
		other, want = m.Sender, model.Write
	}
	if code, at := t.s.p.Code(other), t.s.cursor[other]; at < len(code) && code[at] == (model.Op{Kind: want, Msg: m.ID}) {
		t.cand[m.ID], t.live[m.ID] = slot{t.s.cursor[m.Sender], t.s.cursor[m.Receiver]}, true
		if t.heap != nil {
			t.heap.push(int(m.ID))
		}
	}
}

// refresh recomputes candidacy for every message incident to cell c.
func (t *tracker) refresh(c model.CellID) {
	for _, i := range t.byCell[c] {
		t.update(i)
	}
}

// crossed brings the candidate set up to date after pr was crossed.
func (t *tracker) crossed(pr Pair) {
	// The pair's ops are gone; the checks below re-admit its next word.
	t.live[pr.Msg] = false
	if !t.s.opts.Lookahead {
		t.admit(pr.WriteCell)
		t.admit(pr.ReadCell)
		return
	}
	t.refresh(pr.WriteCell)
	if pr.ReadCell != pr.WriteCell {
		t.refresh(pr.ReadCell)
	}
}

// slice materializes the live candidates in message-id order — the
// exact value the full rescan used to produce — for custom pickers.
// The pairs and their skip lists are valid until the next call.
func (t *tracker) slice() []Pair {
	t.pairs, t.skips = t.pairs[:0], t.skips[:0]
	for i, ok := range t.live {
		if !ok {
			continue
		}
		pr := t.picked(i)
		if pr.Skipped != nil {
			start := len(t.skips)
			t.skips = append(t.skips, pr.Skipped...)
			pr.Skipped = t.skips[start:len(t.skips):len(t.skips)]
		}
		t.pairs = append(t.pairs, pr)
	}
	return t.pairs
}

// pick returns the message of the next pair to cross, or false when
// none is executable. The default picker, ByMessageID, always selects
// the live candidate with the smallest message id (there is exactly one
// candidate per message, so the write-index tie-break never fires);
// the heap finds it without materializing the slice.
func (t *tracker) pick() (int, bool) {
	if t.heap == nil {
		if cands := t.slice(); len(cands) > 0 {
			return int(t.s.opts.Picker(cands).Msg), true
		}
		return 0, false
	}
	for len(*t.heap) > 0 {
		if i := t.heap.pop(); t.live[i] {
			return i, true
		}
	}
	return 0, false
}

// picked is live message i's pair, built from its slot. Under
// lookahead its skips are located again into the state's scratch,
// valid until the next probe; strict rules skip nothing.
func (t *tracker) picked(i int) Pair {
	m := &t.msgs[i]
	pr := Pair{Msg: m.ID, WriteCell: m.Sender, WriteIdx: t.cand[i].w, ReadCell: m.Receiver, ReadIdx: t.cand[i].r}
	if t.s.opts.Lookahead {
		if t.s.probe(*m); len(t.s.skips) > 0 {
			pr.Skipped = t.s.skips
		}
	}
	return pr
}

// minHeap is a binary min-heap of message indexes.
type minHeap []int

func (h *minHeap) push(v int) {
	*h = append(*h, v)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if (*h)[parent] <= (*h)[i] {
			break
		}
		(*h)[parent], (*h)[i] = (*h)[i], (*h)[parent]
		i = parent
	}
}

func (h *minHeap) pop() int {
	old := *h
	v := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && (*h)[l] < (*h)[small] {
			small = l
		}
		if r < n && (*h)[r] < (*h)[small] {
			small = r
		}
		if small == i {
			break
		}
		(*h)[i], (*h)[small] = (*h)[small], (*h)[i]
		i = small
	}
	return v
}

// cross is the crossing-off loop: pick, observe, cross, update, until no
// executable pair remains. The pairs are appended to order in the order
// they were crossed, each with its own copy of its skips, unless order
// is nil.
func cross(p *model.Program, opts Options, order []Pair) (*state, []Pair) {
	s := newState(p, opts)
	t := newTracker(s)
	for s.left > 0 {
		i, ok := t.pick()
		if !ok {
			break
		}
		pr := t.picked(i)
		if opts.Observer != nil {
			opts.Observer(pr)
		}
		s.cross(pr)
		if order != nil {
			kept := pr
			kept.Skipped = slices.Clone(pr.Skipped)
			order = append(order, kept)
		}
		t.crossed(pr)
	}
	return s, order
}

// Run performs the crossing-off procedure one pair at a time until no
// executable pair remains, and reports whether the program is
// deadlock-free (§3.2).
func Run(p *model.Program, opts Options) Result {
	return result(cross(p, opts, make([]Pair, 0, p.TotalOps()/2)))
}

// Verdict is Run without the pick order: the same pass, observer
// included, reporting the verdict, the blocked fronts and the ops left
// (Order is nil). It is the pass of an analysis, which reads the
// labeling its observer builds and never the order.
func Verdict(p *model.Program, opts Options) Result {
	return result(cross(p, opts, nil))
}

func result(s *state, order []Pair) Result {
	return Result{
		DeadlockFree: s.left == 0,
		Order:        order,
		Blocked:      s.blocked(),
		RemainingOps: s.left,
	}
}

// Classify answers only the deadlock-free question: the same pass as
// Run, observer included, without the order and the blocked report.
func Classify(p *model.Program, opts Options) bool {
	s, _ := cross(p, opts, nil)
	return s.left == 0
}

// Round is one step of the simultaneous schedule: all pairs executable
// at the start of the round, crossed together. Because a cell's front
// is a single operation, the pairs of a round are automatically
// disjoint; Fig 4's steps 3, 5 and 9 each contain two pairs.
type Round struct {
	Step  int
	Pairs []Pair
}

// Schedule runs the strict (no-lookahead) procedure in maximal
// simultaneous rounds, reproducing the step structure of Fig 4. It
// reports the rounds and whether the program is deadlock-free. A round
// drains the live set from the heap, in ascending message id, then
// crosses its pairs, admitting at their cells.
func Schedule(p *model.Program) ([]Round, bool) {
	s := newState(p, Options{})
	t := newTracker(s)
	var rounds []Round
	for len(*t.heap) > 0 {
		pairs := make([]Pair, 0, len(*t.heap))
		for len(*t.heap) > 0 {
			pairs = append(pairs, t.picked(t.heap.pop()))
		}
		for _, pr := range pairs {
			s.cross(pr)
			t.crossed(pr)
		}
		rounds = append(rounds, Round{Step: len(rounds) + 1, Pairs: pairs})
	}
	return rounds, s.left == 0
}

// FormatPair renders a pair like "W(XA)@Host/R(XA)@C1" using program
// names.
func FormatPair(p *model.Program, pr Pair) string {
	m := p.Message(pr.Msg)
	s := fmt.Sprintf("W(%s)@%s/R(%s)@%s", m.Name, p.Cell(pr.WriteCell).Name, m.Name, p.Cell(pr.ReadCell).Name)
	if len(pr.Skipped) > 0 {
		var parts []string
		for _, sk := range pr.Skipped {
			parts = append(parts, fmt.Sprintf("W(%s)@%s#%d", p.Message(sk.Msg).Name, p.Cell(sk.Cell).Name, sk.Idx))
		}
		s += " skipping " + strings.Join(parts, ",")
	}
	return s
}

// DescribeBlocked renders the blocked fronts of a deadlocked
// classification, e.g. "C1 blocked at W(A); C2 blocked at R(B)".
func DescribeBlocked(p *model.Program, blocked []BlockedOp) string {
	if len(blocked) == 0 {
		return "none"
	}
	parts := make([]string, 0, len(blocked))
	for _, b := range blocked {
		parts = append(parts, fmt.Sprintf("%s blocked at %s", p.Cell(b.Cell).Name, p.OpString(b.Op)))
	}
	return strings.Join(parts, "; ")
}
