package crossoff

import (
	"reflect"
	"testing"
	"unsafe"

	"systolic/internal/gen"
)

// TestWorkspaceResetForgetsEverything: a pooled workspace holds what its
// last pass left, and not all of it is zero (a deadlocked lookahead
// pass leaves skip counts, a lookahead pass its crossed flags), so a
// pass must run on any workspace as on a new one. Here every table of
// the reused workspace is filled with garbage up to its capacity before
// each pass, over deadlocked and deadlock-free programs that grow and
// shrink, every admission rule and both pickers; the outcome must equal
// the same pass on a new workspace.
func TestWorkspaceResetForgetsEverything(t *testing.T) {
	dirty := new(workspace)
	passes := 0
	for seed := int64(1); seed <= 40; seed++ {
		sc, err := gen.Generate(seed, gen.Options{Cells: 2 + int(seed%9), Messages: 4 + int(seed%17), MaxWords: 4, Interleave: 4, Cyclic: seed%2 == 0, Mutations: int(seed % 8)})
		if err != nil {
			t.Fatal(err)
		}
		p := sc.Program
		for _, rule := range trackerRules {
			for _, picker := range []PairPicker{nil, ByFewestSkips} {
				opts := rule.opts
				opts.Picker = picker
				want := new(workspace).cross(p, opts, []Pair{}, true)
				dirty.scribble()
				if got := dirty.cross(p, opts, []Pair{}, true); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d, %s, picker %v: a reused workspace reports %+v, a new one %+v", seed, rule.name, picker != nil, got, want)
				}
				passes++
			}
		}
	}
	t.Logf("%d passes", passes)
}

// scribble fills every table of w, up to its capacity, with values no
// pass leaves.
func (w *workspace) scribble() {
	fill(w.s.cursor, 7)
	fill(w.s.off, 3)
	fill(w.s.crossed, true)
	fill(w.s.count, 5)
	fill(w.s.skips, Skip{Cell: 1, Idx: 2, Msg: 3})
	w.s.skips = w.s.skips[:cap(w.s.skips)]
	w.s.flagging, w.s.left, w.s.updates = true, -1, -1
	fill(w.t.cand, slot{1, 2})
	fill(w.t.live, true)
	fill(w.t.heap, 1)
	w.t.heap = w.t.heap[:cap(w.t.heap)]
	fill(w.t.pairs, Pair{Msg: 1})
	fill(w.t.skips, Skip{Cell: 1})
}

// fill sets every entry of s's array to v.
func fill[T any](s []T, v T) {
	s = s[:cap(s)]
	for i := range s {
		s[i] = v
	}
}

// TestWorkspaceRetentionBound: a workspace goes back to the pool only
// while its tables hold at most maxPooledBytes, and a pass never
// shrinks them, so one that outgrew the bound stays out after any pass.
func TestWorkspaceRetentionBound(t *testing.T) {
	p := sortNetwork(t, 64, 4, true)
	w := new(workspace)
	w.cross(p, Options{Lookahead: true}, nil, false)
	if !w.pooled() {
		t.Fatalf("a workspace after a pass over %d ops is not pooled", p.TotalOps())
	}
	w.s.skips = make([]Skip, 0, maxPooledBytes/int(unsafe.Sizeof(Skip{}))+1)
	w.cross(p, Options{Lookahead: true}, nil, false)
	if w.pooled() {
		t.Fatalf("a workspace holding a %d-byte skip buffer is pooled", bytesOf(w.s.skips))
	}
}
