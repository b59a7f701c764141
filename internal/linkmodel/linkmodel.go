// Package linkmodel makes inter-cell link timing a pluggable model:
// the unit-latency default the simulator has always had, a fixed
// per-link latency/bandwidth model, and a congestion-sensitive model
// whose hop delay feeds back as backpressure. A Plan is the
// declarative description; Lower compiles it into dense per-link
// delay and credit tables that both execution engines (the compiled
// machine and the full-scan reference) consult at identical points,
// so non-unit-latency runs stay byte-identical across engines. The
// machine lowers into tables its pooled run state keeps; the reference
// engine lowers into a fresh Lowered per run.
//
// Timing semantics (the occupancy model): a link that served w words
// on cycle t is busy — no further word may enter its queues — until
// cycle t+B, where
//
//	B = delay · ceil(w / credit) + extra
//
// delay is the link's per-service latency (1 = unit), credit its
// per-service word bandwidth (0 = unlimited, one service per burst),
// and extra is the congestion model's feedback term
// min(maxExtra, (w-1)/threshold) — zero for the fixed model. A word
// "enters a link's queues" at exactly the points the fault package's
// LinkOpen gate guards, so link timing and fault gating compose at
// the same program points.
//
// Determinism argument: during a cycle's phases the busy state is
// read-only — a pure function of per-link next-free cycles computed
// at the END of the previous cycle. Per-cycle word tallies are sums,
// so the next-free table does not depend on the order in which an
// engine visits the words that crossed. Deadlock detection waits for a
// no-event cycle on which every link is free again: busy windows are
// finite (≤ the tallied words × max factor), so a frozen system reaches
// an all-free cycle and the no-event argument of the fault-free engine
// applies unchanged.
package linkmodel

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"systolic/internal/spec"
	"systolic/internal/topology"
)

// Kind selects one of the three timing models.
type Kind int

const (
	// Unit is the classical cycle-synchronous model: every hop costs
	// one cycle, links never back up. Lower returns nil for it, so the
	// engines' hot paths pay a single nil test.
	Unit Kind = iota
	// Fixed gives every link a fixed service latency and optional word
	// credit, with per-link overrides.
	Fixed
	// Congestion is Fixed plus a load-feedback term: the more words a
	// link served in a cycle, the longer it stays busy, up to a cap.
	Congestion
)

// maxParam bounds every parsed parameter so lowered tables fit int32
// and derived cycle bounds cannot overflow from a spec alone.
const maxParam = 1 << 20

// Override adjusts one link of a Fixed plan. Zero fields inherit the
// plan-wide value.
type Override struct {
	Link   topology.LinkID
	Delay  int
	Credit int
}

// Plan is a declarative link-timing model for one run. A nil *Plan
// and a Plan that lowers to unit timing (delay ≤ 1, no credit, no
// effective override, not congestion-sensitive) are equivalent, and
// the engines produce byte-identical results for both.
type Plan struct {
	Kind Kind
	// Delay is the plan-wide per-service latency in cycles (0 and 1
	// mean unit latency).
	Delay int
	// Credit is the plan-wide per-service word bandwidth (0 =
	// unlimited: a burst of any size is one service).
	Credit int
	// Threshold and MaxExtra shape the Congestion feedback term
	// min(MaxExtra, (words-1)/Threshold). Threshold 0 defaults to 2.
	Threshold int
	MaxExtra  int
	// Overrides adjusts individual links (Fixed only). At most one
	// override per link; ParseSpec and Validate both enforce this.
	Overrides []Override
}

// FixedPlan returns a uniform fixed-latency plan.
func FixedPlan(delay, credit int) *Plan {
	return &Plan{Kind: Fixed, Delay: delay, Credit: credit}
}

// CongestionPlan returns a congestion-sensitive plan.
func CongestionPlan(delay, threshold, maxExtra int) *Plan {
	return &Plan{Kind: Congestion, Delay: delay, Threshold: threshold, MaxExtra: maxExtra}
}

// MaxFactor returns the largest per-service delay any of numLinks
// links can incur under the valid plan p (base delay plus the
// congestion cap, ≥ 1): the multiplier the engines apply to their
// derived default cycle bound, since every word a link serves holds it
// for at most MaxFactor cycles. A unit-timing plan, and a topology
// without links, report 1. The base delay counts only when some link
// keeps it, that is when fewer than numLinks overrides set a delay.
func (p *Plan) MaxFactor(numLinks int) int {
	if p.IsUnit() {
		return 1
	}
	delay, overridden := 0, 0
	for _, o := range p.Overrides {
		if o.Delay > 0 {
			delay = max(delay, o.Delay)
			overridden++
		}
	}
	if overridden < numLinks {
		delay = max(delay, p.delayOrUnit())
	}
	if delay == 0 {
		return 1
	}
	if p.Kind == Congestion {
		delay += p.MaxExtra
	}
	return delay
}

// IsUnit reports whether the plan (possibly nil) times every link
// exactly like the classical unit-latency engine.
func (p *Plan) IsUnit() bool {
	if p == nil || p.Kind == Unit {
		return true
	}
	if p.Kind == Congestion {
		return p.Delay <= 1 && p.Credit == 0 && p.MaxExtra == 0
	}
	if p.Delay > 1 || p.Credit > 0 {
		return false
	}
	for _, o := range p.Overrides {
		if o.Delay > 1 || o.Credit > 0 {
			return false
		}
	}
	return true
}

// Validate checks the plan against a topology of numLinks links:
// parameters in range, overrides only where they are meaningful, and
// at most one override per link. A nil plan is valid.
func (p *Plan) Validate(numLinks int) error {
	if p == nil {
		return nil
	}
	switch p.Kind {
	case Unit, Fixed, Congestion:
	default:
		return fmt.Errorf("link model: unknown kind %d", p.Kind)
	}
	check := func(name string, v int) error {
		if v < 0 {
			return fmt.Errorf("link model: negative %s %d", name, v)
		}
		if v > maxParam {
			return fmt.Errorf("link model: %s %d exceeds the maximum %d", name, v, maxParam)
		}
		return nil
	}
	for _, c := range []struct {
		name string
		v    int
	}{{"delay", p.Delay}, {"credit", p.Credit}, {"threshold", p.Threshold}, {"max extra delay", p.MaxExtra}} {
		if err := check(c.name, c.v); err != nil {
			return err
		}
	}
	if p.Kind != Fixed && len(p.Overrides) > 0 {
		return fmt.Errorf("link model: per-link overrides apply to the fixed model only")
	}
	seen := make(map[topology.LinkID]bool, len(p.Overrides))
	for _, o := range p.Overrides {
		if int(o.Link) < 0 || int(o.Link) >= numLinks {
			return fmt.Errorf("link model: link %d out of range (topology has %d links)", o.Link, numLinks)
		}
		if seen[o.Link] {
			return fmt.Errorf("link model: link %d has more than one override", o.Link)
		}
		seen[o.Link] = true
		if err := check("delay", o.Delay); err != nil {
			return err
		}
		if err := check("credit", o.Credit); err != nil {
			return err
		}
	}
	return nil
}

// String renders the plan as a comma-separated spec in the grammar
// ParseSpec accepts: kind first, plan-wide parameters in fixed order,
// then per-link overrides in declaration order.
// ParseSpec(p.String()) round-trips every valid plan.
func (p *Plan) String() string {
	if p == nil {
		return ""
	}
	var b strings.Builder
	switch p.Kind {
	case Unit:
		return "unit"
	case Fixed:
		b.WriteString("fixed")
		fmt.Fprintf(&b, ",delay=%d", p.delayOrUnit())
		if p.Credit > 0 {
			fmt.Fprintf(&b, ",credit=%d", p.Credit)
		}
		for _, o := range p.Overrides {
			if o.Delay > 0 {
				fmt.Fprintf(&b, ",link:%d:delay=%d", o.Link, o.Delay)
			}
			if o.Credit > 0 {
				fmt.Fprintf(&b, ",link:%d:credit=%d", o.Link, o.Credit)
			}
		}
	case Congestion:
		b.WriteString("congestion")
		fmt.Fprintf(&b, ",delay=%d,threshold=%d,max=%d", p.delayOrUnit(), p.thresholdOrDefault(), p.MaxExtra)
		if p.Credit > 0 {
			fmt.Fprintf(&b, ",credit=%d", p.Credit)
		}
	}
	return b.String()
}

func (p *Plan) delayOrUnit() int {
	if p.Delay <= 0 {
		return 1
	}
	return p.Delay
}

func (p *Plan) thresholdOrDefault() int {
	if p.Threshold <= 0 {
		return 2
	}
	return p.Threshold
}

// ParseSpec parses a comma-separated link-model spec, the grammar the
// `sysdl run -link-model` flag and the server wire format's
// `linkModel` field share (tokenized by internal/spec):
//
//	unit                          the classical unit-latency model
//	fixed[,delay=K][,credit=C][,link:IDX:delay=K][,link:IDX:credit=C]
//	congestion[,delay=K][,threshold=T][,max=M][,credit=C]
//
// An empty spec returns a nil plan (unit timing). Repeating a
// parameter — plan-wide or for the same link — is a parse error, not
// a silent last-write-wins. Index bounds are not known here; the
// machine validates the plan against the concrete topology.
func ParseSpec(text string) (*Plan, error) {
	var p *Plan
	var slot map[topology.LinkID]int // an override's index in p.Overrides
	err := spec.Parse("link model", text, false, func(part, scope string, idx int, key, val string) error {
		if p == nil {
			p = &Plan{}
			switch {
			case scope != "" || val != "":
			case key == "unit":
				return nil
			case key == "fixed":
				p.Kind = Fixed
				return nil
			case key == "congestion":
				p.Kind = Congestion
				return nil
			}
			return fmt.Errorf("link model spec %q: unknown model (want unit, fixed, or congestion)", part)
		}
		if val == "" {
			return fmt.Errorf("link model spec %q: want key=value", part)
		}
		n, err := strconv.Atoi(val)
		if err != nil {
			return fmt.Errorf("link model spec %q: bad %s: %v", part, key, err)
		}
		switch scope {
		case "cell":
			return fmt.Errorf("link model spec %q: the link model has no per-cell parameters", part)
		case "link":
			if p.Kind != Fixed {
				return fmt.Errorf("link model spec %q: per-link overrides apply to the fixed model only", part)
			}
			if key != "delay" && key != "credit" {
				return fmt.Errorf("link model spec %q: unknown link parameter %q (want delay=K or credit=C)", part, key)
			}
			if slot == nil {
				slot = make(map[topology.LinkID]int)
			}
			i, ok := slot[topology.LinkID(idx)]
			if !ok {
				i = len(p.Overrides)
				slot[topology.LinkID(idx)] = i
				p.Overrides = append(p.Overrides, Override{Link: topology.LinkID(idx)})
			}
			if key == "delay" {
				p.Overrides[i].Delay = n
			} else {
				p.Overrides[i].Credit = n
			}
			return nil
		}
		switch key {
		case "delay":
			p.Delay = n
		case "credit":
			p.Credit = n
		case "threshold", "max":
			if p.Kind != Congestion {
				return fmt.Errorf("link model spec %q: %s applies to the congestion model only", part, key)
			}
			if key == "max" {
				p.MaxExtra = n
			} else {
				p.Threshold = n
			}
		default:
			return fmt.Errorf("link model spec %q: unknown parameter %q (want delay, credit, threshold, or max)", part, key)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return p, nil
}

// Lowered is a Plan compiled against a concrete topology: dense
// per-link delay and credit tables the engines' hot paths index
// directly, plus the congestion feedback parameters. Lower rewrites it
// in place, regrowing its tables only when the topology outgrows them,
// so a caller that keeps one Lowered (the machine's pooled run state)
// lowers a plan per run without allocating; a Lowered belongs to one
// run at a time.
type Lowered struct {
	delay      []int32
	credit     []int32
	congestion bool
	threshold  int32
	maxExtra   int32
}

// Lower compiles a validated plan against a topology of numLinks
// links into l, which it returns. It returns nil for a unit-timing
// plan, so callers can gate every hot-path check on a single nil test.
func Lower(l *Lowered, p *Plan, numLinks int) *Lowered {
	if p.IsUnit() {
		return nil
	}
	l.delay = slices.Grow(l.delay[:0], numLinks)[:numLinks]
	l.credit = slices.Grow(l.credit[:0], numLinks)[:numLinks]
	l.threshold = int32(p.thresholdOrDefault())
	l.congestion, l.maxExtra = p.Kind == Congestion, 0
	if l.congestion {
		l.maxExtra = int32(p.MaxExtra)
	}
	base := int32(p.delayOrUnit())
	for i := range l.delay {
		l.delay[i] = base
		l.credit[i] = int32(p.Credit)
	}
	for _, o := range p.Overrides {
		if o.Delay > 0 {
			l.delay[o.Link] = int32(o.Delay)
		}
		if o.Credit > 0 {
			l.credit[o.Link] = int32(o.Credit)
		}
	}
	return l
}

// Busy returns how many cycles link lk stays busy after serving
// tally words in one cycle: delay·ceil(tally/credit) plus the
// congestion feedback min(maxExtra, (tally-1)/threshold). tally must
// be ≥ 1. The result is ≥ 1; 1 reproduces unit timing (free again
// next cycle).
func (l *Lowered) Busy(lk topology.LinkID, tally int32) int {
	slots := 1
	if c := l.credit[lk]; c > 0 && tally > c {
		slots = int((tally + c - 1) / c)
	}
	b := int(l.delay[lk]) * slots
	if l.congestion {
		extra := (tally - 1) / l.threshold
		if extra > l.maxExtra {
			extra = l.maxExtra
		}
		b += int(extra)
	}
	return b
}
