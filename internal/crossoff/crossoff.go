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
// A pass keeps the set of executable pairs up to date incrementally and
// allocates what the program's size determines up front: one crossed
// flag per op, one candidate slot per message, and for Run alone the
// pick order at ops/2. A candidate holds no skip list: the picked
// pair's skips are located again into the pass's one skip buffer, and
// only Run's order copies them out. Under the strict rules a message is executable iff
// both its endpoint fronts are ops on it, so a crossed pair can only
// enable the messages at the two new fronts: O(1) per pair whatever the
// cell degree, O(ops·log messages) per run with the default picker's
// heap. Lookahead re-examines every message incident to the two cells,
// O(degree) per pair. The analysis makes one such pass without the
// order (Verdict, see label.Run); Options.Observer is where the §6
// labeler rides along.
package crossoff

import (
	"fmt"
	"slices"
	"sort"
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
// size of the queues that the message will cross".
func BudgetFromRoutes(routes [][]topology.Hop, capacity int) func(model.MessageID) int {
	return func(m model.MessageID) int {
		if int(m) < 0 || int(m) >= len(routes) {
			return 0
		}
		return capacity * len(routes[m])
	}
}

// state tracks crossing progress over a program.
type state struct {
	p    *model.Program
	opts Options
	// crossed flags every op of the program in one slice; cell c's ops
	// start at off[c].
	crossed []bool
	off     []int
	cursor  []int // first uncrossed index per cell (may point past crossed holes lazily)
	left    int
	// skipCount is withinBudget's per-message scratch, all zero between
	// calls; allocated on the first budgeted skip set.
	skipCount []int
	// skips is the one skip buffer of the pass: locate records skipped
	// writes here, a candidate keeps only its two indexes, and the
	// picked pair's skips are located again into it before the
	// observer sees them. Only Run's order copies them out.
	skips   []Skip
	updates int // tracker.update calls: the pass's clock-free cost, for tests
}

func newState(p *model.Program, opts Options) *state {
	s := &state{p: p, opts: opts}
	s.off = make([]int, p.NumCells())
	s.cursor = make([]int, p.NumCells())
	for c := range s.off {
		s.off[c] = s.left
		s.left += len(p.Code(model.CellID(c)))
	}
	s.crossed = make([]bool, s.left)
	return s
}

// advance moves a cell's cursor past crossed ops.
func (s *state) advance(c model.CellID) {
	crossed := s.crossed[s.off[c] : s.off[c]+len(s.p.Code(c))]
	for s.cursor[c] < len(crossed) && crossed[s.cursor[c]] {
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
// msg in cell c's program, subject to lookahead rules. It returns the
// op index and whether it was found within the rules, and appends the
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
		if !s.opts.Lookahead {
			return 0, false // strict: only the front qualifies
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

// probe locates message m's executable pair under the current rules:
// the write and read indexes, with the writes skipped to reach them in
// s.skips.
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

// pair is the Pair of message m at write index w and read index r. Its
// Skipped aliases s.skips, so it is valid only until the next probe.
func (s *state) pair(m model.Message, w, r int) Pair {
	pr := Pair{Msg: m.ID, WriteCell: m.Sender, WriteIdx: w, ReadCell: m.Receiver, ReadIdx: r}
	if len(s.skips) > 0 {
		pr.Skipped = s.skips
	}
	return pr
}

// candidates returns all currently executable pairs, one per eligible
// message, in message-id order, each owning its skip list.
func (s *state) candidates() []Pair {
	var out []Pair
	for _, m := range s.p.Messages() {
		if w, r, ok := s.probe(m); ok {
			pr := s.pair(m, w, r)
			pr.Skipped = slices.Clone(pr.Skipped)
			out = append(out, pr)
		}
	}
	return out
}

// cross marks a pair's two ops as executed.
func (s *state) cross(pr Pair) {
	s.crossed[s.off[pr.WriteCell]+pr.WriteIdx] = true
	s.crossed[s.off[pr.ReadCell]+pr.ReadIdx] = true
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
// still: a message is a candidate iff both endpoint fronts are ops on
// it, so the only messages that can gain candidacy are the ones at the
// two new fronts, and the only one that loses it is the crossed
// message. Strict runs therefore cost O(1) maintenance per pair
// whatever the cell degree; lookahead runs rescan the incident
// messages, O(degree) per pair.
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
	nLive  int
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
	for i := range t.msgs {
		t.update(i)
	}
	return t
}

// slot is a candidate pair's write and read index.
type slot struct{ w, r int }

// update recomputes message i's candidacy.
func (t *tracker) update(i int) {
	t.s.updates++
	w, r, ok := t.s.probe(t.msgs[i])
	if ok != t.live[i] {
		if ok {
			t.nLive++
			if t.heap != nil {
				t.heap.push(i)
			}
		} else {
			t.nLive--
		}
	}
	t.cand[i], t.live[i] = slot{w, r}, ok
}

// updateFront recomputes candidacy for the message at cell c's front.
func (t *tracker) updateFront(c model.CellID) {
	if op, _, ok := t.s.front(c); ok {
		t.update(int(op.Msg))
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
	// The pair's two ops are gone; the update below re-admits the
	// message (and re-pushes it) if its next word is executable too.
	if i := int(pr.Msg); t.live[i] {
		t.live[i] = false
		t.nLive--
	}
	if !t.s.opts.Lookahead {
		t.updateFront(pr.WriteCell)
		t.updateFront(pr.ReadCell)
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

// pick returns the next pair to cross, or false when none is
// executable. The default picker, ByMessageID, always selects the live
// candidate with the smallest message id (there is exactly one
// candidate per message, so the write-index tie-break never fires);
// the heap finds it without materializing the slice.
func (t *tracker) pick() (Pair, bool) {
	if t.heap == nil {
		if t.nLive == 0 {
			return Pair{}, false
		}
		return t.picked(int(t.s.opts.Picker(t.slice()).Msg)), true
	}
	for len(*t.heap) > 0 {
		if i := t.heap.pop(); t.live[i] {
			return t.picked(i), true
		}
	}
	return Pair{}, false
}

// picked is live message i's pair. Under lookahead its skips are
// located again into the state's scratch, valid until the next probe;
// strict rules skip nothing.
func (t *tracker) picked(i int) Pair {
	m := t.msgs[i]
	if t.s.opts.Lookahead {
		t.s.probe(m)
	}
	return t.s.pair(m, t.cand[i].w, t.cand[i].r)
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
		pr, ok := t.pick()
		if !ok {
			break
		}
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
// reports the rounds and whether the program is deadlock-free.
func Schedule(p *model.Program) ([]Round, bool) {
	s := newState(p, Options{})
	var rounds []Round
	for s.left > 0 {
		cands := s.candidates()
		if len(cands) == 0 {
			break
		}
		sort.Slice(cands, func(i, j int) bool { return cands[i].Msg < cands[j].Msg })
		for _, pr := range cands {
			s.cross(pr)
		}
		rounds = append(rounds, Round{Step: len(rounds) + 1, Pairs: cands})
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
