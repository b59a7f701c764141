package label

import (
	"testing"

	"systolic/internal/crossoff"
	"systolic/internal/workload"
)

// TestLabelerStepsLinearInOps is the clock-free gate on the shape of the
// labeling cost: at any width, Related's union loop and the labeler's
// rule-1c/1d visits stay within a constant per op. Scanning every
// message for relatives of each newly labeled one (the quadratic rule
// 1c this replaced) visits messages × classes of them, thousands per op
// at these widths. The sorting network has many small classes and no
// interleaving; a FIR filter's cells interleave their input and output
// streams, so its unions count (their number per op is the interleaving
// depth, which its width does not change).
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
			if res := crossoff.Run(p, crossoff.Options{Observer: l.observe}); !res.DeadlockFree {
				t.Fatalf("%s: not deadlock-free", w.Name)
			}
			ops := p.TotalOps()
			t.Logf("%s: %d unions and %d rule-1c/1d visits for %d ops", w.Name, unions, l.visits, ops)
			if unions > 4*ops {
				t.Errorf("%s: %d unions for %d ops, want ≤ 4 per op", w.Name, unions, ops)
			}
			if l.visits > ops {
				t.Errorf("%s: %d rule-1c/1d visits for %d ops, want ≤ 1 per op", w.Name, l.visits, ops)
			}
		}
	}
}
