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
// One admission rule serves both rule sets. A cell offers its window,
// the uncrossed ops from its cursor through its first read, cut where
// one more skipped write would break R2; the strict rules allow no
// skip, so their window is the front op and the cursors are the whole
// crossed state. A crossed pair can enable only messages in the new
// windows of its two cells, so a pass walks each window once per pair
// that changes it, plus O(log messages) per pair for the default
// picker's heap; Schedule runs on the same tracker. Lookahead flags the
// ops it crosses past a cursor, and locates the picked pair's skips
// again into one buffer that only Run's order copies out. The analysis
// makes one such pass without the order (Verdict, see label.Run);
// Options.Observer is where the §6 labeler rides along.
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
	// state under the strict rules. An op crossed past its cursor, which
	// only lookahead locates, is flagged (cell c's from off[c]).
	cursor  []int
	crossed []bool
	off     []int
	left    int
	// skips is the one skip buffer of the pass: locate records skipped
	// writes here, a candidate keeps only its two indexes, and the
	// picked pair's skips are located again into it before the
	// observer sees them. Only Run's order copies them out. It grows by
	// append, since no pass knows its deepest window up front: under
	// lookahead its growth is the only allocation that follows the
	// program's size. count holds how many of them are on each message,
	// for rule R2; allocated at the first skip.
	skips   []Skip
	count   []int
	updates int // candidacy checks (one per completion tried): the pass's clock-free cost, for tests
}

func newState(p *model.Program, opts Options) *state {
	return &state{p: p, opts: opts, cursor: make([]int, p.NumCells()), left: p.TotalOps()}
}

// flagged reports whether op i of cell c was crossed past its cursor.
func (s *state) flagged(c model.CellID, i int) bool {
	return s.crossed != nil && s.crossed[s.off[c]+i]
}

// budget is rule R2's allowance of skipped writes to message m per
// located pair under lookahead: all of them without a Budget. The
// strict rules allow none, and never reach here.
func (s *state) budget(m model.MessageID) int {
	if s.opts.Budget == nil {
		return math.MaxInt
	}
	return s.opts.Budget(m)
}

// skip records the write at op i of cell c, on message m, as skipped,
// and reports whether the pair being located still keeps within m's
// budget.
func (s *state) skip(c model.CellID, i int, m model.MessageID) bool {
	if s.count == nil {
		s.count = make([]int, s.p.NumMessages())
	}
	s.skips = append(s.skips, Skip{Cell: c, Idx: i, Msg: m})
	s.count[m]++
	return s.count[m] <= s.budget(m)
}

// unskip drops the skips recorded after the first n, and their counts.
func (s *state) unskip(n int) {
	for _, sk := range s.skips[n:] {
		s.count[sk.Msg]--
	}
	s.skips = s.skips[:n]
}

// locate finds the earliest uncrossed op of the wanted kind on message
// msg in cell c's program under the lookahead rules, appending the
// writes skipped to reach it to s.skips. It fails at a read (rule R1),
// at a skip that breaks rule R2, and past the end of the code.
func (s *state) locate(c model.CellID, kind model.OpKind, msg model.MessageID) (int, bool) {
	code := s.p.Code(c)
	for i := s.cursor[c]; i < len(code); i++ {
		if s.flagged(c, i) {
			continue
		}
		op := code[i]
		if op.Kind == kind && op.Msg == msg {
			return i, true
		}
		if op.Kind == model.Read || !s.skip(c, i, op.Msg) {
			return 0, false
		}
	}
	return 0, false
}

// probe locates message m's executable pair under the lookahead
// rules: the write and read indexes, with the writes skipped to reach
// them in s.skips.
func (s *state) probe(m model.Message) (w, r int, ok bool) {
	s.unskip(0)
	if w, ok = s.locate(m.Sender, model.Write, m.ID); ok {
		r, ok = s.locate(m.Receiver, model.Read, m.ID)
	}
	return w, r, ok
}

// cross marks a pair's two ops as executed. Under the strict rules both
// are at their cells' cursors, which step past them; flag does the
// rest.
func (s *state) cross(pr Pair) {
	s.left -= 2
	if s.crossed == nil && pr.WriteIdx == s.cursor[pr.WriteCell] && pr.ReadIdx == s.cursor[pr.ReadCell] {
		s.cursor[pr.WriteCell]++
		s.cursor[pr.ReadCell]++
		return
	}
	s.flag(pr.WriteCell, pr.WriteIdx)
	s.flag(pr.ReadCell, pr.ReadIdx)
}

// flag marks op i of cell c crossed, allocating the flags at the first
// op crossed past a cursor, and steps the cursor past the flagged ops
// at it.
func (s *state) flag(c model.CellID, i int) {
	if s.crossed == nil {
		s.off = make([]int, s.p.NumCells())
		for c := 1; c < len(s.off); c++ {
			s.off[c] = s.off[c-1] + len(s.p.Code(model.CellID(c-1)))
		}
		s.crossed = make([]bool, s.p.TotalOps())
	}
	s.crossed[s.off[c]+i] = true
	code := s.p.Code(c)
	for s.cursor[c] < len(code) && s.crossed[s.off[c]+s.cursor[c]] {
		s.cursor[c]++
	}
}

// blocked gathers the diagnostic front ops of unfinished cells.
func (s *state) blocked() []BlockedOp {
	var out []BlockedOp
	for c, at := range s.cursor {
		if code := s.p.Code(model.CellID(c)); at < len(code) {
			out = append(out, BlockedOp{Cell: model.CellID(c), Idx: at, Op: code[at]})
		}
	}
	return out
}

// tracker maintains the candidate set incrementally, with one admission
// rule for both rule sets (see admit). A candidate is its write and
// read indexes only. Under lookahead its skipped writes are located
// again when it is picked, which costs what the locate that found it
// did, and no candidate keeps a list.
type tracker struct {
	s    *state
	msgs []model.Message
	cand []slot // current candidate per message (valid iff live)
	live []bool
	// heap orders the live messages for the default picker: a message
	// is pushed when it turns live and stays live until it is popped
	// and crossed, so every entry is live and there are never more
	// than messages. Empty when a custom picker chooses from slice()
	// instead.
	heap minHeap
	// pairs and skips back slice(), reused from pick to pick.
	pairs []Pair
	skips []Skip
}

func newTracker(s *state) *tracker {
	t := &tracker{s: s, msgs: s.p.Messages()}
	if s.opts.Picker == nil {
		t.heap = make(minHeap, 0, len(t.msgs))
	}
	t.cand = make([]slot, len(t.msgs))
	t.live = make([]bool, len(t.msgs))
	for c := range s.cursor {
		t.admit(model.CellID(c))
	}
	return t
}

// slot is a candidate pair's write and read index.
type slot struct{ w, r int }

// admit is the admission rule of both rule sets. Cell c's window is
// its uncrossed ops from the cursor through the first read, cut short
// at the write whose skip would break rule R2; the strict rules allow
// no skip, so their window is the front op. At the first op on each
// message in the window that is not live, admit completes the pair at
// the message's other endpoint within the budget the walk has left —
// the front there, or under lookahead the op locate finds — and the
// message turns live on that slot.
//
// Crossing a pair removes two ops, and the only skips it changes are
// ones it removes, so every other live message stays live on the same
// slot and only the crossed message dies. A message can turn live only
// through its first op in the new window of one of the pair's two cells
// (two, as no message goes from a cell to itself). So admit runs for
// every cell at the start and then for each crossed pair's two cells.
func (t *tracker) admit(c model.CellID) {
	s := t.s
	s.unskip(0)
	code := s.p.Code(c)
	for i := s.cursor[c]; i < len(code); i++ {
		if s.flagged(c, i) {
			continue
		}
		op := code[i]
		// No write of op.Msg skipped yet: this is its first op here.
		if !t.live[op.Msg] && (s.count == nil || s.count[op.Msg] == 0) {
			s.updates++
			m := &t.msgs[op.Msg]
			other, want := m.Receiver, model.Read // c writes m, so it is m's sender
			if op.Kind == model.Read {
				other, want = m.Sender, model.Write
			}
			j, ok := s.cursor[other], false
			if oc := s.p.Code(other); j < len(oc) && oc[j] == (model.Op{Kind: want, Msg: m.ID}) {
				ok = true
			} else if s.opts.Lookahead {
				n := len(s.skips)
				j, ok = s.locate(other, want, m.ID)
				s.unskip(n)
			}
			if ok {
				t.cand[m.ID], t.live[m.ID] = slot{i, j}, true
				if want == model.Write {
					t.cand[m.ID] = slot{j, i}
				}
				if s.opts.Picker == nil {
					t.heap.push(int(m.ID))
				}
			}
		}
		if op.Kind == model.Read || !s.opts.Lookahead || !s.skip(c, i, op.Msg) {
			return
		}
	}
}

// crossed brings the candidate set up to date after pr was crossed.
func (t *tracker) crossed(pr Pair) {
	t.live[pr.Msg] = false
	t.admit(pr.WriteCell)
	t.admit(pr.ReadCell)
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
	if t.s.opts.Picker != nil {
		if cands := t.slice(); len(cands) > 0 {
			return int(t.s.opts.Picker(cands).Msg), true
		}
		return 0, false
	}
	if len(t.heap) == 0 {
		return 0, false
	}
	return t.heap.pop(), true
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
	for len(t.heap) > 0 {
		pairs := make([]Pair, 0, len(t.heap))
		for len(t.heap) > 0 {
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
