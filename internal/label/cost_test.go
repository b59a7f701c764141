package label

import (
	"strconv"
	"testing"

	"systolic/internal/crossoff"
	"systolic/internal/model"
	"systolic/internal/workload"
)

// TestLabelerStepsLinearInOps is the clock-free gate on the shape of the
// labeling cost: at any width, Related's union loop and the labeler's
// rule-1c/1d visits stay within one per op. Scanning every message for
// relatives of each newly labeled one (the quadratic rule 1c this
// replaced) visits messages × classes of them, thousands per op at
// these widths. The sorting network has many small classes and no
// interleaving; a FIR filter's cells interleave their input and output
// streams, which cost 2.74 unions per op when each op united its
// message with every op since the previous one on it.
func TestLabelerStepsLinearInOps(t *testing.T) {
	for _, family := range []func(width int) (*workload.Workload, error){
		func(width int) (*workload.Workload, error) {
			return workload.PipelinedSort(workload.PipelinedSortOptions{Width: width, Rounds: 4})
		},
		func(width int) (*workload.Workload, error) {
			return workload.FIR(workload.FIROptions{Taps: 8, Outputs: width / 8})
		},
	} {
		for _, width := range []int{4000, 16000} {
			w, err := family(width)
			if err != nil {
				t.Fatal(err)
			}
			p := w.Program
			unions := Related(p).unions
			l := newLabeler(p)
			if res := crossoff.Verdict(p, crossoff.Options{Observer: l.observe}); !res.DeadlockFree {
				t.Fatalf("%s: not deadlock-free", w.Name)
			}
			ops := p.TotalOps()
			t.Logf("%s: %d unions and %d rule-1c/1d visits for %d ops", w.Name, unions, l.visits, ops)
			if unions > ops {
				t.Errorf("%s: %d unions for %d ops, want ≤ 1 per op", w.Name, unions, ops)
			}
			if l.visits > ops {
				t.Errorf("%s: %d rule-1c/1d visits for %d ops, want ≤ 1 per op", w.Name, l.visits, ops)
			}
		}
	}
}

// roundRobin is the deepest interleaving two cells can have: k
// messages from one cell to the other, written and read in turn, about
// ops operations in all. Every op has k−1 ops between it and the
// previous one on its message.
func roundRobin(t testing.TB, k, ops int) *model.Program {
	t.Helper()
	words := ops / (2 * k)
	b := model.NewSizedBuilder(2, k, 2*k*words)
	from, to := b.AddCell("From"), b.AddCell("To")
	msgs := make([]model.MessageID, k)
	for i := range msgs {
		msgs[i] = b.DeclareMessage("M"+strconv.Itoa(i), from, to, words)
	}
	for range words {
		for _, m := range msgs {
			b.Write(from, m).Read(to, m)
		}
	}
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// samePartition fails unless two union-finds split the messages alike.
// newClassIndex numbers classes by their smallest member, so equal
// partitions give equal class maps.
func samePartition(t *testing.T, name string, got, want *unionFind) {
	t.Helper()
	g, w := newClassIndex(got).classOf, newClassIndex(want).classOf
	for m := range w {
		if g[m] != w[m] {
			t.Fatalf("%s: message %d in class %d, reference class %d", name, m, g[m], w[m])
		}
	}
}

// TestRelatedLinearAtAnyDepth is the clock-free gate on Related at any
// interleaving depth: whether 16, 256 or 2048 messages take turns
// between two cells, a program of about 200 000 ops costs at most one
// union per op. Uniting each op's message with every op since the
// previous one on it costs the depth per op: 2047 at the deepest, some
// 400 million unions. The partition must stay the reference's, there and
// on the generated corpus. The reference is that quadratic loop, which
// the race detector slows to minutes at the deepest program, so a race
// build checks the partition at the other two depths only.
func TestRelatedLinearAtAnyDepth(t *testing.T) {
	for _, k := range []int{16, 256, 2048} {
		p := roundRobin(t, k, 200000)
		uf := Related(p)
		ops := p.TotalOps()
		t.Logf("depth %d: %d unions for %d ops", k, uf.unions, ops)
		if uf.unions > ops {
			t.Errorf("depth %d: %d unions for %d ops, want ≤ 1 per op", k, uf.unions, ops)
		}
		if raceEnabled && k > 256 {
			continue
		}
		samePartition(t, "depth "+strconv.Itoa(k), uf, referenceRelated(p))
	}
	for _, c := range append(corpusRefCases(t), generatedRefCases(t)...) {
		samePartition(t, c.name, Related(c.p), referenceRelated(c.p))
	}
}
