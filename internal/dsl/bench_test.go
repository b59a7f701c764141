package dsl

import (
	"fmt"
	"testing"

	"systolic/internal/workload"
)

// pipesortText is the DSL text of a Width-cell, 4-round pipelined sort:
// the family whose text grows linearly in Width with everything else
// fixed, so ns/op across widths shows whether the front end is linear.
func pipesortText(tb testing.TB, width int) string {
	tb.Helper()
	w, err := workload.PipelinedSort(workload.PipelinedSortOptions{Width: width, Rounds: 4})
	if err != nil {
		tb.Fatal(err)
	}
	return Format(w.Program, w.Topology)
}

// BenchmarkParse reports MB/s and allocs/op of Parse over pipesort
// texts of 500 to 16000 cells; CHANGES.md quotes its table.
func BenchmarkParse(b *testing.B) {
	for _, width := range []int{500, 2000, 8000, 16000} {
		src := pipesortText(b, width)
		b.Run(fmt.Sprintf("pipesort-%d", width), func(b *testing.B) {
			b.SetBytes(int64(len(src)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Parse(src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFormat is the same table for Format.
func BenchmarkFormat(b *testing.B) {
	for _, width := range []int{500, 2000, 8000, 16000} {
		src := pipesortText(b, width)
		f, err := Parse(src)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("pipesort-%d", width), func(b *testing.B) {
			b.SetBytes(int64(len(src)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				formatted = Format(f.Program, f.Topology)
			}
		})
	}
}

// formatted keeps BenchmarkFormat's result alive.
var formatted string
