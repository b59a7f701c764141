package label

import (
	"errors"
	"reflect"
	"testing"
	"unsafe"

	"systolic/internal/crossoff"
	"systolic/internal/model"
	"systolic/internal/rational"
	"systolic/internal/topology"
)

// TestLabelerResetForgetsEverything: a pooled labeler holds its last
// pass's labels, marks, heaps and equalities, so reset must leave it as
// a new one. Every table of the reused labeler is filled with garbage
// up to its capacity before each pass, over the generated corpus
// (deadlocked programs and fallbacks among them), strict and lookahead,
// with the default picker and ByFewestSkips; the pass and the labeling
// must equal the same pass on a new labeler.
func TestLabelerResetForgetsEverything(t *testing.T) {
	dirty := newLabeler()
	seen := map[string]int{}
	for _, c := range generatedRefCases(t)[:80] {
		routes, err := topology.Routes(c.p, c.t)
		if err != nil {
			t.Fatal(err)
		}
		for _, opts := range []Options{
			{},
			{Lookahead: true, Budget: crossoff.BudgetFromRoutes(routes, 1)},
			{Lookahead: true, Budget: crossoff.BudgetFromRoutes(routes, 2), Picker: crossoff.ByFewestSkips},
		} {
			fresh := newLabeler()
			fresh.reset(c.p)
			wantRes, wantLab := fresh.run(opts)
			dirty.scribble()
			dirty.reset(c.p)
			gotRes, gotLab := dirty.run(opts)
			if !reflect.DeepEqual(gotRes, wantRes) || !reflect.DeepEqual(gotLab, wantLab) {
				t.Fatalf("%s, lookahead %v: a reused labeler gives %+v %+v, a new one %+v %+v", c.name, opts.Lookahead, gotRes, gotLab, wantRes, wantLab)
			}
			switch {
			case !wantRes.DeadlockFree:
				seen["deadlocked"]++
			case len(wantLab.Warnings) > 0:
				seen["fallback"]++
			default:
				seen["greedy"]++
			}
		}
	}
	t.Logf("%v", seen)
	if len(seen) < 3 {
		t.Fatalf("the corpus does not mix deadlocked, fallback and greedy passes: %v", seen)
	}
}

// scribble fills every table of l, up to its capacity, with values no
// pass leaves.
func (l *labeler) scribble() {
	fill(l.related.buf, 3)
	fill(l.relScratch, 5)
	fill(l.classes.classOf, 1)
	fill(l.classes.start, 2)
	fill(l.classes.members, 3)
	fill(l.classes.next, 4)
	fill(l.labels, rational.FromInt(9))
	fill(l.dense, 9)
	fill(l.idx, 1)
	fill(l.labeled, true)
	l.maxInUse = rational.FromInt(99)
	fill(l.lastTouched, rational.FromInt(8))
	fill(l.left, 6)
	fill(l.pending, 1)
	fill(l.heapStart, 2)
	fill(l.heapLen, 3)
	l.schemeErr, l.visits, l.equalities = errors.New("scribbled"), -1, true
	fill(l.eqs, [2]model.MessageID{0, 1})
	l.eqs = l.eqs[:cap(l.eqs)]
	fill(l.sameLabel.buf, 0)
	fill(l.order.tables, 7)
	fill(l.order.edges, 7)
}

// fill sets every entry of s's array to v.
func fill[T any](s []T, v T) {
	s = s[:cap(s)]
	for i := range s {
		s[i] = v
	}
}

// TestLabelerRetentionBound: a labeler goes back to the pool only while
// its tables hold at most maxPooledBytes, and reset never shrinks them,
// so one that outgrew the bound stays out after any pass.
func TestLabelerRetentionBound(t *testing.T) {
	c := generatedRefCases(t)[0]
	l := newLabeler()
	l.reset(c.p)
	l.run(Options{})
	if !l.pooled() {
		t.Fatalf("a labeler after a pass over %d ops is not pooled", c.p.TotalOps())
	}
	l.labels = make([]rational.R, maxPooledBytes/int(unsafe.Sizeof(rational.R{}))+1)
	l.reset(c.p)
	l.run(Options{})
	if l.pooled() {
		t.Fatalf("a labeler holding %d bytes of labels is pooled", bytesOf(l.labels))
	}
}
