// Package label implements the paper's consistent message labeling
// (§5 step 1, §6, §8.2).
//
// A labeling is *consistent* when every cell program writes to or reads
// from messages with nondecreasing labels. Consistency is the
// compile-time half of the avoidance strategy; the run-time half
// (compatible queue assignment) lives in internal/assign.
//
// The §6 scheme labels messages during a crossing-off pass:
//
//	1a. if neither endpoint of the picked message A will touch an
//	    already-labeled message, A gets a label larger than all in use;
//	1b. otherwise A gets a label between the last label each endpoint
//	    touched and the smallest labeled message either endpoint will
//	    still touch (possibly a non-integer — exact rationals here);
//	1c. messages *related* to A (interleaved reads or interleaved
//	    writes at some cell, closed symmetrically and transitively)
//	    receive A's label;
//	1d. with lookahead, messages whose writes were skipped while
//	    locating A's pair receive A's label (§8.2).
//
// The scheme is the observer of a crossing-off pass, and there is one
// such pass per analysis: Run owns it, attaches the labeler, and hands
// back the pass's verdict together with the labeling, so core.Analyze
// (which wants both) and Assign (which wants the labeling) share one
// implementation and neither crosses the program off twice. The pass
// keeps no pick order, since nothing here reads it. The labeler keeps
// its state dense — the related classes as one flat index, one
// remaining-word counter per message, one min-heap of pending labels
// per cell in a shared array — so labeling a pass costs
// O(ops + messages·log degree) and a fixed number of allocations, on
// top of Related's one scan of the program, which joins each pair of
// adjacent ops at most once: O(ops) unions at any interleaving depth.
//
// Only what a caller reads is built. The greedy labels are checked as
// dense ranks, which keep their order and ties. A rule-1d skip of a
// message that already has a label never survives that check: the
// skipped write's cell is an endpoint of the pair, so step 1b puts the
// pair's label below the skipped one, and the write precedes the
// pair's op there. When the greedy labeling fails, the order-based
// fallback runs over flat arrays, on the rule-1d equalities the labeler
// collected from the pass it observed; only a custom picker, whose pass
// is not the default one rule 1d is taken over, costs a second
// lookahead pass. Its note is the only warning a labeling carries.
package label

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"systolic/internal/crossoff"
	"systolic/internal/model"
	"systolic/internal/rational"
)

// Labeling is an assignment of positive labels to every message.
type Labeling struct {
	// ByMessage holds the exact label of each message, indexed by id.
	ByMessage []rational.R
	// Dense holds equivalent 1-based integer ranks: same order, same
	// ties, smallest label ↦ 1.
	Dense []int
	// Warnings notes how the labeling was reached when it was not the
	// §6 scheme's own: the fallback to the order-based construction,
	// with the reason the greedy labels were refused.
	Warnings []string
}

// Options configures the §6 scheme.
type Options struct {
	// Lookahead and Budget select the crossing-off variant used to
	// drive labeling (§8.2). Budget semantics match crossoff.Options.
	Lookahead bool
	Budget    func(model.MessageID) int
	// Picker chooses among executable pairs; the paper notes the
	// choice may affect queue-use efficiency. nil = crossoff default.
	Picker crossoff.PairPicker
}

// Trivial returns the all-ones labeling, which the paper observes is
// always consistent but makes the compatible-assignment condition very
// stringent (§5).
func Trivial(p *model.Program) Labeling {
	l := Labeling{
		ByMessage: make([]rational.R, p.NumMessages()),
		Dense:     make([]int, p.NumMessages()),
	}
	for i := range l.ByMessage {
		l.ByMessage[i] = rational.FromInt(1)
		l.Dense[i] = 1
	}
	return l
}

// Related computes the paper's related-messages relation: A and B are
// related when, in some cell program, an operation on A appears between
// two consecutive operations on B of the same kind; the relation is
// closed symmetrically and transitively. The result maps each message
// to a class representative.
//
// Uniting B with every op between two of its consecutive ops is the
// same as joining each adjacent pair of positions from just after the
// first of them up to the second, and an adjacency joined once never
// needs joining again. A skip pointer per position leads past the
// joined ones, so each adjacency costs one union whatever the
// interleaving depth: O(ops) unions in all.
func Related(p *model.Program) *unionFind {
	n := p.NumMessages()
	uf := newUnionFind(n)
	longest := 0
	for c := 0; c < p.NumCells(); c++ {
		longest = max(longest, len(p.Code(model.CellID(c))))
	}
	// Within one cell all ops on a given message share a kind (the cell
	// is its sender or its receiver), so the position of the previous op
	// per message suffices. last holds it as 1 + the op's position in
	// the concatenation of all cell programs; base is where the current
	// cell starts there, so an entry at or below base is another cell's.
	// next[k] leads from position k towards the first adjacency (k',
	// k'+1) at or after it not yet joined: next[k] == k when (k, k+1)
	// is not.
	scratch := make([]int, n+longest)
	last, next := scratch[:n:n], scratch[n:]
	base := 0
	for c := 0; c < p.NumCells(); c++ {
		code := p.Code(model.CellID(c))
		for k := range code {
			next[k] = k
		}
		for i, op := range code {
			if j := last[op.Msg] - base; j > 0 {
				// j is the position just after the previous op on
				// op.Msg: join j…i.
				for k := unjoined(next, j); k < i; k = unjoined(next, k+1) {
					if a, b := code[k].Msg, code[k+1].Msg; a != b {
						uf.Union(int(a), int(b))
					}
					next[k] = k + 1
				}
			}
			last[op.Msg] = base + i + 1
		}
		base += len(code)
	}
	return uf
}

// unjoined follows the skip pointers from position k to the first
// adjacency at or after it that is not yet joined, halving the path on
// the way.
func unjoined(next []int, k int) int {
	for next[k] != k {
		next[k] = next[next[k]]
		k = next[k]
	}
	return k
}

// classIndex is the related-messages partition in compressed-row form:
// class k's members are members[start[k]:start[k+1]], ascending.
type classIndex struct {
	classOf []int32 // message → class
	start   []int32
	members []int32
}

func newClassIndex(uf *unionFind) classIndex {
	n := len(uf.parent)
	ix := classIndex{classOf: make([]int32, n), members: make([]int32, n)}
	// Number the classes in order of their smallest member. next maps a
	// representative to 1 + its class here, and a class to its fill
	// position below.
	next := make([]int32, n)
	classes := int32(0)
	for i := range ix.classOf {
		r := uf.Find(i)
		if next[r] == 0 {
			classes++
			next[r] = classes
		}
		ix.classOf[i] = next[r] - 1
	}
	ix.start = make([]int32, classes+1)
	for _, k := range ix.classOf {
		ix.start[k+1]++
	}
	for k := int32(0); k < classes; k++ {
		ix.start[k+1] += ix.start[k]
	}
	next = next[:classes]
	copy(next, ix.start)
	for i, k := range ix.classOf {
		ix.members[next[k]] = int32(i)
		next[k]++
	}
	return ix
}

// class returns the members of msg's class.
func (ix classIndex) class(msg model.MessageID) []int32 {
	k := ix.classOf[msg]
	return ix.members[ix.start[k]:ix.start[k+1]]
}

// Assign produces a consistent labeling. It runs the paper's §6
// crossing-off-driven greedy scheme first; if that scheme's pick order
// paints itself into a corner (rule 1c can commit a related class to a
// label before every member's per-cell constraints are visible — the
// paper leaves the "optimal" pick choice open), Assign falls back to
// the order-based construction of assignByOrder, which cannot fail,
// and records the fallback in Warnings. It returns an error only when
// the program is not deadlock-free under the selected variant.
//
// Assign is Run for callers that want only the labeling.
func Assign(p *model.Program, opts Options) (Labeling, error) {
	res, lab := Run(p, opts)
	if !res.DeadlockFree {
		return Labeling{}, fmt.Errorf("label: program is not deadlock-free: %s",
			crossoff.DescribeBlocked(p, res.Blocked))
	}
	return lab, nil
}

// Run makes the one crossing-off pass of the analysis (§3.2) with the
// §6 labeler attached as its observer, and returns the pass's result
// alongside the labeling it produced. A program that is not
// deadlock-free under the selected variant yields the zero Labeling:
// the verdict and the blocked fronts are in the result. The result
// carries no pick order: nothing an analysis returns reads it.
func Run(p *model.Program, opts Options) (crossoff.Result, Labeling) {
	l := newLabeler(p)
	// With the default picker the §8.2 rule-1d equalities a fallback
	// needs are those of this very pass, so the labeler collects them.
	l.equalities = opts.Lookahead && opts.Picker == nil
	res := crossoff.Verdict(p, crossoff.Options{
		Lookahead: opts.Lookahead,
		Budget:    opts.Budget,
		Picker:    opts.Picker,
		Observer:  l.observe,
	})
	if !res.DeadlockFree {
		return res, Labeling{}
	}
	lab, err := l.labeling()
	if err == nil {
		return res, lab
	}
	var eqs [][2]model.MessageID
	switch {
	case l.equalities:
		eqs = l.eqs
	case opts.Lookahead:
		// A custom picker's pass is not the default picker's, whose
		// pairs rule 1d is taken over.
		eqs = lookaheadEqualities(p, opts.Budget)
	}
	// The pass above crossed everything off, so the order-based
	// construction needs no verdict of its own.
	fallback := orderLabels(p, eqs)
	fallback.Warnings = append(fallback.Warnings,
		fmt.Sprintf("label: fell back to order-based labeling (%s)", err))
	return res, fallback
}

// errInconsistent is the greedy scheme's failure when every window was
// open but the labels it chose still decrease along some cell program.
var errInconsistent = errors.New("greedy §6 scheme produced an inconsistent labeling")

// labeler is the literal §6 algorithm, steps 1a–1d, as the observer of
// a crossing-off pass. Every step is O(1) or O(log degree) per pair
// except rule 1c, which visits a related class once, when its first
// member is labeled: O(ops + messages·log degree) for the whole pass.
type labeler struct {
	p       *model.Program
	classes classIndex

	labels   []rational.R
	labeled  []bool
	maxInUse rational.R
	// lastTouched is the label of the last pair crossed at each cell;
	// zero = "nothing yet" (labels are ≥ 1).
	lastTouched []rational.R
	// left counts each message's words not yet crossed. Both endpoint
	// cells "will read from or write to" the message (steps 1a/1b)
	// exactly while it is positive, since a pair crosses one op at each.
	left []int32
	// pending holds, per cell, a min-heap by label of the labeled
	// messages incident to the cell: cell c's heap is
	// pending[heapStart[c]:heapStart[c]+heapLen[c]]. A message enters
	// both endpoint heaps once, when it is labeled, so the room each
	// cell needs is its degree. Entries whose message has no words left
	// are dropped when they reach the top.
	pending   []int32
	heapStart []int32
	heapLen   []int32

	schemeErr error
	visits    int // messages rules 1c and 1d looked at: clock-free cost, for tests

	// equalities says to collect the §8.2 rule-1d equalities a fallback
	// needs: eqs pairs each skipped write's message with the located
	// pair's. sameLabel drops a pair the ones before it already imply,
	// so eqs never holds more than messages−1 of them; the order-based
	// construction merges exactly the same components either way.
	equalities bool
	eqs        [][2]model.MessageID
	sameLabel  *unionFind
}

func newLabeler(p *model.Program) *labeler {
	l := &labeler{
		p:           p,
		classes:     newClassIndex(Related(p)),
		labels:      make([]rational.R, p.NumMessages()),
		labeled:     make([]bool, p.NumMessages()),
		maxInUse:    rational.FromInt(0),
		lastTouched: make([]rational.R, p.NumCells()),
		left:        make([]int32, p.NumMessages()),
		pending:     make([]int32, 2*p.NumMessages()),
		heapStart:   make([]int32, p.NumCells()+1),
		heapLen:     make([]int32, p.NumCells()),
	}
	for _, m := range p.Messages() {
		l.left[m.ID] = int32(m.Words)
		l.heapStart[m.Sender+1]++
		l.heapStart[m.Receiver+1]++
	}
	for c := 0; c < p.NumCells(); c++ {
		l.heapStart[c+1] += l.heapStart[c]
	}
	return l
}

// setLabel labels msg and enters it into its endpoints' pending heaps.
func (l *labeler) setLabel(msg model.MessageID, lab rational.R) {
	l.labels[msg] = lab
	l.labeled[msg] = true
	l.maxInUse = rational.Max(l.maxInUse, lab)
	m := l.p.Message(msg)
	l.push(m.Sender, msg)
	l.push(m.Receiver, msg)
}

// heap returns cell c's pending heap.
func (l *labeler) heap(c model.CellID) []int32 {
	return l.pending[l.heapStart[c] : l.heapStart[c]+l.heapLen[c]]
}

func (l *labeler) push(c model.CellID, msg model.MessageID) {
	l.heapLen[c]++
	h := l.heap(c)
	i := len(h) - 1
	h[i] = int32(msg)
	for i > 0 {
		parent := (i - 1) / 2
		if !l.labels[h[i]].Less(l.labels[h[parent]]) {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

// pop drops the top of cell c's pending heap.
func (l *labeler) pop(c model.CellID) {
	h := l.heap(c)
	n := len(h) - 1
	h[0] = h[n]
	l.heapLen[c]--
	for i := 0; ; {
		small := i
		if a := 2*i + 1; a < n && l.labels[h[a]].Less(l.labels[h[small]]) {
			small = a
		}
		if b := 2*i + 2; b < n && l.labels[h[b]].Less(l.labels[h[small]]) {
			small = b
		}
		if small == i {
			return
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
}

// pendingMin returns the smallest label among already-labeled messages
// still appearing in cell c's remaining ops. The message being labeled
// never counts: it has no label yet.
func (l *labeler) pendingMin(c model.CellID) (rational.R, bool) {
	for l.heapLen[c] > 0 {
		if top := l.heap(c)[0]; l.left[top] > 0 {
			return l.labels[top], true
		}
		l.pop(c)
	}
	return rational.R{}, false
}

// observe sees each pair immediately before it is crossed.
func (l *labeler) observe(pr crossoff.Pair) {
	if !l.labeled[pr.Msg] {
		l.label(pr)
	}
	if l.equalities {
		l.collect(pr)
	}
	// The pair is crossed after observation: account for it.
	l.left[pr.Msg]--
	l.lastTouched[pr.WriteCell] = l.labels[pr.Msg]
	l.lastTouched[pr.ReadCell] = l.labels[pr.Msg]
}

// label applies steps 1a–1d to a pair whose message has no label yet.
func (l *labeler) label(pr crossoff.Pair) {
	m := l.p.Message(pr.Msg)
	uS, okS := l.pendingMin(m.Sender)
	uR, okR := l.pendingMin(m.Receiver)
	var lab rational.R
	switch {
	case !okS && !okR:
		// Step 1a: larger than every label in use.
		lab = rational.FromInt(l.maxInUse.Floor() + 1)
	default:
		// Step 1b: between the last labels touched and the
		// smallest pending labeled message.
		upper := uS
		if !okS || (okR && uR.Less(upper)) {
			upper = uR
		}
		lower := rational.Max(l.lastTouched[m.Sender], l.lastTouched[m.Receiver])
		if !lower.Less(upper) {
			if l.schemeErr == nil {
				l.schemeErr = fmt.Errorf(
					"label: empty window for message %s: last touched %v, pending %v",
					m.Name, lower, upper)
			}
			lower = upper.Sub(rational.FromInt(1)) // degrade; Check will judge
		}
		lab = lower.Mid(upper)
	}
	// Steps 1c/1d share the label across the related class and
	// the skipped-over messages. Rule 1d may have labeled some of the
	// class already, one message at a time.
	l.visits += len(l.classes.class(pr.Msg)) + len(pr.Skipped)
	for _, other := range l.classes.class(pr.Msg) {
		if !l.labeled[other] {
			l.setLabel(model.MessageID(other), lab)
		}
	}
	for _, sk := range pr.Skipped {
		if !l.labeled[sk.Msg] {
			l.setLabel(sk.Msg, lab)
		}
	}
}

// collect records the rule-1d equalities of a pair, unless earlier ones
// already imply them.
func (l *labeler) collect(pr crossoff.Pair) {
	for _, sk := range pr.Skipped {
		if sk.Msg == pr.Msg {
			continue
		}
		if l.sameLabel == nil {
			l.sameLabel = newUnionFind(l.p.NumMessages())
			l.eqs = make([][2]model.MessageID, 0, l.p.NumMessages()-1)
		}
		if !l.sameLabel.Same(int(pr.Msg), int(sk.Msg)) {
			l.sameLabel.Union(int(pr.Msg), int(sk.Msg))
			l.eqs = append(l.eqs, [2]model.MessageID{pr.Msg, sk.Msg})
		}
	}
}

// labeling returns what the scheme produced over a pass that crossed
// every operation off, or why it cannot be used: an empty step-1b
// window, or labels that are not consistent.
func (l *labeler) labeling() (Labeling, error) {
	if l.schemeErr != nil {
		return Labeling{}, l.schemeErr
	}
	for i, ok := range l.labeled {
		if !ok {
			// Unreachable for validated programs (every message has a
			// crossed pair), kept as a hard failure.
			return Labeling{}, fmt.Errorf("label: message %s never labeled", l.p.Message(model.MessageID(i)).Name)
		}
	}
	dense := densify(l.labels)
	// The ranks keep the labels' order and ties, so they are what the
	// consistency check needs, without a rational compare per op.
	if c, _ := firstDecrease(l.p, dense); c >= 0 {
		return Labeling{}, errInconsistent
	}
	return Labeling{ByMessage: l.labels, Dense: dense}, nil
}

// densify converts exact labels to 1-based integer ranks preserving
// order and ties.
func densify(labels []rational.R) []int {
	idx := make([]int, len(labels))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int { return labels[a].Cmp(labels[b]) })
	dense := make([]int, len(labels))
	rank := 0
	for i, id := range idx {
		if i == 0 || labels[idx[i-1]].Less(labels[id]) {
			rank++
		}
		dense[id] = rank
	}
	return dense
}

// Check verifies consistency: every cell program touches messages in
// nondecreasing label order. It returns nil for consistent labelings
// and a descriptive error naming the first violating cell and ops
// otherwise.
func Check(p *model.Program, labels []rational.R) error {
	if len(labels) != p.NumMessages() {
		return fmt.Errorf("label: %d labels for %d messages", len(labels), p.NumMessages())
	}
	for c := 0; c < p.NumCells(); c++ {
		code := p.Code(model.CellID(c))
		for i := 1; i < len(code); i++ {
			if prev, cur := labels[code[i-1].Msg], labels[code[i].Msg]; cur.Less(prev) {
				return decrease(p, model.CellID(c), i, cur, prev)
			}
		}
	}
	return nil
}

// CheckDense is Check over integer labels, for callers holding only
// dense ranks; it compares the integers themselves.
func CheckDense(p *model.Program, dense []int) error {
	if len(dense) != p.NumMessages() {
		return fmt.Errorf("label: %d labels for %d messages", len(dense), p.NumMessages())
	}
	if c, i := firstDecrease(p, dense); c >= 0 {
		code := p.Code(c)
		return decrease(p, c, i, dense[code[i].Msg], dense[code[i-1].Msg])
	}
	return nil
}

// firstDecrease finds the first op, cell by cell, whose rank is below
// its predecessor's: cell c's op i, or c = -1 when no rank decreases.
func firstDecrease(p *model.Program, dense []int) (model.CellID, int) {
	for c := range model.CellID(p.NumCells()) {
		code := p.Code(c)
		for i := 1; i < len(code); i++ {
			if dense[code[i].Msg] < dense[code[i-1].Msg] {
				return c, i
			}
		}
	}
	return -1, 0
}

// decrease reports cell c's op i, labeled cur, following an op labeled
// prev > cur.
func decrease(p *model.Program, c model.CellID, i int, cur, prev any) error {
	code := p.Code(c)
	return fmt.Errorf(
		"label: cell %s: %s (label %v) follows %s (label %v): labels decrease",
		p.Cell(c).Name, p.OpString(code[i]), cur, p.OpString(code[i-1]), prev)
}

// unionFind is a plain disjoint-set structure over message indices.
type unionFind struct {
	parent []int
	rank   []int
	unions int // Union calls, for the cost tests
}

// newUnionFind returns n singleton sets.
func newUnionFind(n int) *unionFind {
	buf := make([]int, 2*n)
	uf := &unionFind{parent: buf[:n:n], rank: buf[n:]}
	for i := range uf.parent {
		uf.parent[i] = i
	}
	return uf
}

// Find returns the representative of x's set.
func (u *unionFind) Find(x int) int {
	for u.parent[x] != x {
		u.parent[x] = u.parent[u.parent[x]]
		x = u.parent[x]
	}
	return x
}

// Union merges the sets containing x and y.
func (u *unionFind) Union(x, y int) {
	u.unions++
	rx, ry := u.Find(x), u.Find(y)
	if rx == ry {
		return
	}
	if u.rank[rx] < u.rank[ry] {
		rx, ry = ry, rx
	}
	u.parent[ry] = rx
	if u.rank[rx] == u.rank[ry] {
		u.rank[rx]++
	}
}

// Same reports whether x and y are in one set.
func (u *unionFind) Same(x, y int) bool { return u.Find(x) == u.Find(y) }

// Classes returns the members of each class with ≥1 member, keyed by
// representative, each sorted ascending.
func (u *unionFind) Classes() map[int][]int {
	out := make(map[int][]int)
	for i := range u.parent {
		r := u.Find(i)
		out[r] = append(out[r], i)
	}
	for _, members := range out {
		sort.Ints(members)
	}
	return out
}
