// Package fault models degraded arrays: slowed or dead cells and
// throttled or severed links, each optionally taking effect from a
// given cycle. A Plan is the declarative description; Lower compiles
// it into dense per-cell and per-link gate tables that both execution
// engines (the compiled machine and the full-scan reference) consult
// at identical points, so degraded runs stay byte-identical across
// engines. The machine lowers into tables its pooled run state keeps;
// the reference engine lowers into a fresh Lowered per run.
//
// Determinism argument: every gate is a pure function of (static
// plan, cycle number). A slowed element with factor k accepts work
// only on cycles that are multiples of k — a global phase, not one
// relative to the fault's effective-from cycle — so all periodic
// gates open simultaneously on common multiples. Deadlock detection
// waits for such an all-open cycle: the system's state evolves only
// on events, so a no-event cycle with every periodic gate open proves
// no future cycle can make progress either, exactly as in the
// fault-free engine. Dead cells and severed links never reopen; work
// depending on them stalls into an ordinary detected deadlock.
package fault

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"systolic/internal/model"
	"systolic/internal/spec"
	"systolic/internal/topology"
)

// CellFault degrades one cell: a periodic slowdown (the cell issues
// reads/writes only every Factor-th cycle), or death (the cell never
// issues again). Interior word forwarding through the cell is NOT
// gated by a cell fault — forwarding belongs to the communication
// agent (§2), which the link faults model.
type CellFault struct {
	// Cell is the degraded cell.
	Cell model.CellID
	// Factor is the periodic slowdown: the cell may issue only on
	// cycles divisible by Factor. 0 and 1 mean no slowdown.
	Factor int
	// Dead marks the cell permanently unable to issue from From on.
	Dead bool
	// From is the first cycle the fault is in effect (0 = always).
	From int
}

// LinkFault degrades one link: a periodic throttle (words may enter
// the link's queues only every Factor-th cycle) or a severed link (no
// word ever enters again). Words already buffered on the link may
// still be read out — they crossed before the fault bit.
type LinkFault struct {
	// Link is the degraded link.
	Link topology.LinkID
	// Factor is the periodic throttle: words enter the link's queues
	// only on cycles divisible by Factor. 0 and 1 mean no throttle.
	Factor int
	// Severed marks the link permanently closed from From on.
	Severed bool
	// From is the first cycle the fault is in effect (0 = always).
	From int
}

// Plan is a set of faults to apply to one run. At most one fault per
// cell and per link; Validate enforces this along with index bounds.
// A nil *Plan, an empty Plan, and a Plan whose every entry is a no-op
// (factor ≤ 1, not dead, not severed) are all equivalent to running
// fault-free, and the engines produce byte-identical results for all
// three (the property suite pins this).
type Plan struct {
	Cells []CellFault
	Links []LinkFault
}

// MaxFactor returns the largest periodic factor in the plan (≥ 1; 1
// for a nil plan or one without a periodic fault): the multiplier the
// engines apply to their derived default cycle bound, since a factor-k
// slowdown stretches any schedule by ≤ k. Dead cells and severed links
// stretch nothing; they stop it.
func (p *Plan) MaxFactor() int {
	f := 1
	if p == nil {
		return f
	}
	for _, c := range p.Cells {
		if !c.Dead {
			f = max(f, c.Factor)
		}
	}
	for _, l := range p.Links {
		if !l.Severed {
			f = max(f, l.Factor)
		}
	}
	return f
}

// IsNoop reports whether the plan (possibly nil) degrades nothing.
func (p *Plan) IsNoop() bool {
	if p == nil {
		return true
	}
	for _, c := range p.Cells {
		if c.Dead || c.Factor > 1 {
			return false
		}
	}
	for _, l := range p.Links {
		if l.Severed || l.Factor > 1 {
			return false
		}
	}
	return true
}

// Validate checks the plan against an array of numCells cells and
// numLinks links: indexes in range, factors and effective-from cycles
// in 0..2³¹−1 (the machine lowers both to int32), no dead element that
// also declares a slowdown, and at most one fault per cell and per
// link. A nil plan is valid.
func (p *Plan) Validate(numCells, numLinks int) error {
	if p == nil {
		return nil
	}
	seenCell := make(map[model.CellID]bool, len(p.Cells))
	for _, c := range p.Cells {
		if int(c.Cell) < 0 || int(c.Cell) >= numCells {
			return fmt.Errorf("cell %d out of range (array has %d cells)", c.Cell, numCells)
		}
		if seenCell[c.Cell] {
			return fmt.Errorf("cell %d has more than one fault", c.Cell)
		}
		seenCell[c.Cell] = true
		if c.Factor < 0 {
			return fmt.Errorf("cell %d: negative slowdown factor %d", c.Cell, c.Factor)
		}
		if c.Factor > math.MaxInt32 {
			return fmt.Errorf("cell %d: slowdown factor %d exceeds %d", c.Cell, c.Factor, math.MaxInt32)
		}
		if c.Dead && c.Factor > 1 {
			return fmt.Errorf("cell %d: dead cell cannot also declare slowdown factor %d", c.Cell, c.Factor)
		}
		if c.From < 0 {
			return fmt.Errorf("cell %d: negative effective-from cycle %d", c.Cell, c.From)
		}
		if c.From > math.MaxInt32 {
			return fmt.Errorf("cell %d: effective-from cycle %d exceeds %d", c.Cell, c.From, math.MaxInt32)
		}
	}
	seenLink := make(map[topology.LinkID]bool, len(p.Links))
	for _, l := range p.Links {
		if int(l.Link) < 0 || int(l.Link) >= numLinks {
			return fmt.Errorf("link %d out of range (topology has %d links)", l.Link, numLinks)
		}
		if seenLink[l.Link] {
			return fmt.Errorf("link %d has more than one fault", l.Link)
		}
		seenLink[l.Link] = true
		if l.Factor < 0 {
			return fmt.Errorf("link %d: negative throttle factor %d", l.Link, l.Factor)
		}
		if l.Factor > math.MaxInt32 {
			return fmt.Errorf("link %d: throttle factor %d exceeds %d", l.Link, l.Factor, math.MaxInt32)
		}
		if l.Severed && l.Factor > 1 {
			return fmt.Errorf("link %d: severed link cannot also declare throttle factor %d", l.Link, l.Factor)
		}
		if l.From < 0 {
			return fmt.Errorf("link %d: negative effective-from cycle %d", l.Link, l.From)
		}
		if l.From > math.MaxInt32 {
			return fmt.Errorf("link %d: effective-from cycle %d exceeds %d", l.Link, l.From, math.MaxInt32)
		}
	}
	return nil
}

// describeCell renders one cell fault canonically (the spec grammar
// ParseSpec accepts).
func describeCell(c CellFault) string {
	var b strings.Builder
	b.WriteString("cell:")
	b.WriteString(strconv.Itoa(int(c.Cell)))
	if c.Dead {
		b.WriteString(":dead")
	} else {
		b.WriteString(":slow=")
		b.WriteString(strconv.Itoa(c.Factor))
	}
	if c.From > 0 {
		b.WriteString("@")
		b.WriteString(strconv.Itoa(c.From))
	}
	return b.String()
}

// describeLink renders one link fault canonically.
func describeLink(l LinkFault) string {
	var b strings.Builder
	b.WriteString("link:")
	b.WriteString(strconv.Itoa(int(l.Link)))
	if l.Severed {
		b.WriteString(":sever")
	} else {
		b.WriteString(":slow=")
		b.WriteString(strconv.Itoa(l.Factor))
	}
	if l.From > 0 {
		b.WriteString("@")
		b.WriteString(strconv.Itoa(l.From))
	}
	return b.String()
}

// String renders the plan as a comma-separated spec, cells first then
// links, each in declaration order. ParseSpec(p.String()) round-trips
// every valid plan with factors ≥ 2.
func (p *Plan) String() string {
	if p == nil {
		return ""
	}
	parts := make([]string, 0, len(p.Cells)+len(p.Links))
	for _, c := range p.Cells {
		parts = append(parts, describeCell(c))
	}
	for _, l := range p.Links {
		parts = append(parts, describeLink(l))
	}
	return strings.Join(parts, ",")
}

// ParseSpec parses a comma-separated fault spec, the grammar the
// `sysdl run -fault` flag and the server wire format's string form
// share (tokenized by internal/spec):
//
//	cell:IDX:slow=K[@FROM]   periodic cell slowdown, factor K
//	cell:IDX:dead[@FROM]     dead cell
//	link:IDX:slow=K[@FROM]   periodic link throttle, factor K
//	link:IDX:sever[@FROM]    severed link
//
// The optional @FROM suffix delays the fault to cycle FROM; @0 is
// accepted and means "from the start", the same as no suffix (the
// canonical String form omits it). An empty spec returns a nil plan.
// Naming one cell or link twice is a parse error, not a silent
// last-write-wins: a plan can hold at most one fault per element.
// Index bounds are not known here; the machine validates the plan
// against the concrete array.
func ParseSpec(text string) (*Plan, error) {
	var p *Plan
	err := spec.Parse("fault", text, true, func(part, scope string, idx int, key, val string) error {
		if scope == "" {
			return fmt.Errorf("fault spec %q: want cell:IDX:EFFECT or link:IDX:EFFECT", part)
		}
		// @FROM ends the item: it trails the value of slow=K@FROM and
		// the key of dead@FROM and sever@FROM. Whether the item has a
		// value is settled before the suffix comes off, so dead=@5 is
		// not dead@5.
		hasVal := val != ""
		tail := &key
		if hasVal {
			tail = &val
		}
		from := 0
		if s, at, ok := strings.Cut(*tail, "@"); ok {
			n, err := strconv.Atoi(at)
			if err != nil {
				return fmt.Errorf("fault spec %q: bad effective-from cycle: %v", part, err)
			}
			if n < 0 {
				return fmt.Errorf("fault spec %q: negative effective-from cycle %d", part, n)
			}
			from, *tail = n, s
		}
		factor, terminal := 0, false
		switch {
		case key == "slow" && hasVal:
			n, err := strconv.Atoi(val)
			if err != nil {
				return fmt.Errorf("fault spec %q: bad slowdown factor: %v", part, err)
			}
			factor = n
		case !hasVal && (key == "dead" || key == "sever"):
			if (key == "dead") != (scope == "cell") {
				return fmt.Errorf("fault spec %q: cells die, links sever", part)
			}
			terminal = true
		default:
			return fmt.Errorf("fault spec %q: unknown effect %q (want slow=K, dead, or sever)", part, key)
		}
		if p == nil {
			p = &Plan{}
		}
		if scope == "cell" {
			p.Cells = append(p.Cells, CellFault{Cell: model.CellID(idx), Factor: factor, Dead: terminal, From: from})
		} else {
			p.Links = append(p.Links, LinkFault{Link: topology.LinkID(idx), Factor: factor, Severed: terminal, From: from})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// periodicGate is one compiled slowdown for the all-open deadlock
// check.
type periodicGate struct {
	factor int
	from   int
}

// Lowered is a Plan compiled against a concrete array: dense per-cell
// and per-link tables the engines' hot paths index directly. Factor
// encoding: 0 = no fault, ≥ 2 = periodic factor, -1 = dead/severed.
// Lower rewrites it in place, regrowing its tables only when the array
// outgrows them, so a caller that keeps one Lowered (the machine's
// pooled run state) lowers a plan per run without allocating; a
// Lowered belongs to one run at a time.
type Lowered struct {
	cellFactor []int32
	cellFrom   []int32
	linkFactor []int32
	linkFrom   []int32
	periodic   []periodicGate
	// descs is the canonical form of the active faults of the plan
	// whose entries descCells and descLinks copy: it is rendered again
	// only when a plan's entries differ from those.
	descs     []string
	descCells []CellFault
	descLinks []LinkFault
}

// Lower compiles a validated plan against an array of numCells cells
// and numLinks links into l, which it returns. It returns nil for a
// no-op plan, so callers can gate every hot-path check on a single nil
// test.
func Lower(l *Lowered, p *Plan, numCells, numLinks int) *Lowered {
	if p.IsNoop() {
		return nil
	}
	l.cellFactor = zeroed(l.cellFactor, numCells)
	l.cellFrom = zeroed(l.cellFrom, numCells)
	l.linkFactor = zeroed(l.linkFactor, numLinks)
	l.linkFrom = zeroed(l.linkFrom, numLinks)
	l.periodic = l.periodic[:0]
	render := !slices.Equal(l.descCells, p.Cells) || !slices.Equal(l.descLinks, p.Links)
	if render {
		l.descs = l.descs[:0]
		l.descCells = append(l.descCells[:0], p.Cells...)
		l.descLinks = append(l.descLinks[:0], p.Links...)
	}
	for _, c := range p.Cells {
		if !c.Dead && c.Factor <= 1 {
			continue
		}
		f := int32(-1)
		if !c.Dead {
			f = int32(c.Factor)
			l.periodic = append(l.periodic, periodicGate{factor: c.Factor, from: c.From})
		}
		l.cellFactor[c.Cell] = f
		l.cellFrom[c.Cell] = int32(c.From)
		if render {
			l.descs = append(l.descs, describeCell(c))
		}
	}
	for _, lf := range p.Links {
		if !lf.Severed && lf.Factor <= 1 {
			continue
		}
		f := int32(-1)
		if !lf.Severed {
			f = int32(lf.Factor)
			l.periodic = append(l.periodic, periodicGate{factor: lf.Factor, from: lf.From})
		}
		l.linkFactor[lf.Link] = f
		l.linkFrom[lf.Link] = int32(lf.From)
		if render {
			l.descs = append(l.descs, describeLink(lf))
		}
	}
	return l
}

// zeroed returns s resized to n and cleared, reusing its backing array
// when it is large enough.
func zeroed(s []int32, n int) []int32 {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// CellOpen reports whether cell c may issue an operation on cycle.
func (l *Lowered) CellOpen(c model.CellID, cycle int) bool {
	f := l.cellFactor[c]
	if f == 0 || cycle < int(l.cellFrom[c]) {
		return true
	}
	if f < 0 {
		return false
	}
	return cycle%int(f) == 0
}

// LinkOpen reports whether a word may enter link lk's queues on cycle.
func (l *Lowered) LinkOpen(lk topology.LinkID, cycle int) bool {
	f := l.linkFactor[lk]
	if f == 0 || cycle < int(l.linkFrom[lk]) {
		return true
	}
	if f < 0 {
		return false
	}
	return cycle%int(f) == 0
}

// Never is the next-open cycle of a gate that stays closed for good (a
// dead cell, a severed link): later than any cycle a run can reach.
const Never = math.MaxInt

// nextOpen is the shared body of CellNextOpen and LinkNextOpen: the
// first cycle ≥ cycle on which a gate with the given factor encoding
// is open, assuming the gate's effective-from cycle has been reached
// whenever the gate is closed on cycle.
func nextOpen(f int32, from int32, cycle int) int {
	if f == 0 || cycle < int(from) {
		return cycle
	}
	if f < 0 {
		return Never
	}
	if r := cycle % int(f); r != 0 {
		return cycle + int(f) - r
	}
	return cycle
}

// CellNextOpen returns the first cycle ≥ cycle on which cell c's gate
// is open once its fault is in effect: cycle itself when CellOpen
// holds, the next multiple of the slowdown factor otherwise, Never for
// a dead cell. The engines' idle-cycle fast-forward uses it as the
// earliest cycle a closed gate can stop being the reason an operation
// is held back.
func (l *Lowered) CellNextOpen(c model.CellID, cycle int) int {
	return nextOpen(l.cellFactor[c], l.cellFrom[c], cycle)
}

// LinkNextOpen is CellNextOpen for link lk's gate; Never for a
// severed link.
func (l *Lowered) LinkNextOpen(lk topology.LinkID, cycle int) int {
	return nextOpen(l.linkFactor[lk], l.linkFrom[lk], cycle)
}

// AllPeriodicOpen reports whether every periodic gate is open on
// cycle. A no-event cycle that satisfies this is a true deadlock:
// dead and severed elements never reopen, every slowed element was
// offered the cycle, and the state cannot change without an event.
func (l *Lowered) AllPeriodicOpen(cycle int) bool {
	for _, g := range l.periodic {
		if cycle >= g.from && cycle%g.factor != 0 {
			return false
		}
	}
	return true
}

// NextAllOpen returns the first cycle in [from, limit) on which
// AllPeriodicOpen holds, or limit when there is none. Such a cycle is
// a multiple of every factor in effect at from, so the search visits
// only multiples of the largest of them; gates that come into effect
// later can only rule candidates out, which the per-candidate test
// handles.
func (l *Lowered) NextAllOpen(from, limit int) int {
	step := 1
	for _, g := range l.periodic {
		if from >= g.from && g.factor > step {
			step = g.factor
		}
	}
	// from ≤ t ends the search should t wrap past the top of the int
	// range (a caller-set limit may sit there).
	for t := from + (step-from%step)%step; from <= t && t < limit; t += step {
		if l.AllPeriodicOpen(t) {
			return t
		}
	}
	return limit
}

// Descriptions returns the active (non-no-op) faults in canonical
// spec form, cells first then links, each in plan order. The slice
// belongs to l: Lower rewrites it when the next plan's entries differ,
// so a caller copies what it keeps and writes into none of it.
func (l *Lowered) Descriptions() []string {
	return l.descs
}
