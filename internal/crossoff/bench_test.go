package crossoff

import (
	"fmt"
	"testing"

	"systolic/internal/model"
	"systolic/internal/workload"
)

// longPipeline builds a 1-message-per-stage pipeline of the given
// width and depth for scaling measurements.
func longPipeline(b testing.TB, cells, words int) *model.Program {
	b.Helper()
	bd := model.NewBuilder()
	ids := bd.AddCells("C", cells)
	for c := 0; c+1 < cells; c++ {
		m := bd.DeclareMessage(fmt.Sprintf("M%d", c), ids[c], ids[c+1], words)
		bd.WriteN(ids[c], m, words)
		bd.ReadN(ids[c+1], m, words)
	}
	p, err := bd.Build()
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkClassifyStrict times the strict pass on pipelines, whose
// cells each finish one message before the next, and on FIR 16×1024,
// whose cells interleave their input and output messages word by word.
func BenchmarkClassifyStrict(b *testing.B) {
	type bench struct {
		name string
		p    *model.Program
	}
	var cases []bench
	for _, tc := range []struct{ cells, words int }{
		{4, 16}, {8, 64}, {16, 256},
	} {
		cases = append(cases, bench{fmt.Sprintf("cells=%d,words=%d", tc.cells, tc.words), longPipeline(b, tc.cells, tc.words)})
	}
	fir, err := workload.FIR(workload.FIROptions{Taps: 16, Outputs: 1024})
	if err != nil {
		b.Fatal(err)
	}
	cases = append(cases, bench{"fir=16x1024", fir.Program})
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			for b.Loop() {
				if !Classify(tc.p, Options{}) {
					b.Fatal("program rejected")
				}
			}
			b.ReportMetric(float64(tc.p.TotalOps()), "ops")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(tc.p.TotalOps()/2), "ns/pair")
		})
	}
}

func BenchmarkClassifyLookahead(b *testing.B) {
	for _, tc := range []struct{ cells, words int }{
		{4, 16}, {8, 64},
	} {
		p := longPipeline(b, tc.cells, tc.words)
		b.Run(fmt.Sprintf("cells=%d,words=%d", tc.cells, tc.words), func(b *testing.B) {
			for b.Loop() {
				if !Classify(p, Options{Lookahead: true, Budget: UniformBudget(4)}) {
					b.Fatal("pipeline rejected")
				}
			}
		})
	}
}

func BenchmarkSchedule(b *testing.B) {
	p := longPipeline(b, 8, 64)
	for b.Loop() {
		if _, free := Schedule(p); !free {
			b.Fatal("pipeline rejected")
		}
	}
}
