package cli

import (
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
)

// TestFuzzUnderBudgetGolden holds the paper outputs that a change to
// the engines must leave byte for byte to their committed reports:
// Figs 1–10 as AllFigures prints them, and `sysdl fuzz` reports.
// `sysdl fuzz -n 150 -seed 1 -queues 1` runs under budget, so the
// shrinker, the program rewriter and the DSL formatter all show in the
// minimized counterexamples it prints; the other fuzz rows are the
// differential oracle's totals on the perfect array, under seeded
// faults and under retimed link models.
func TestFuzzUnderBudgetGolden(t *testing.T) {
	fuzz := func(set func(*SysdlOptions)) func(io.Writer) error {
		return func(w io.Writer) error {
			opts := DefaultSysdlOptions()
			set(&opts)
			if code, err := Sysdl(w, "fuzz", "", opts); err != nil || code != 0 {
				return fmt.Errorf("exit %d, err %v", code, err)
			}
			return nil
		}
	}
	for _, tc := range []struct {
		golden string
		render func(io.Writer) error
	}{
		{"fuzz-under-budget.golden", fuzz(func(o *SysdlOptions) { o.FuzzN, o.Queues = 150, 1 })},
		{"figures.golden", AllFigures},
		{"fuzz.golden", fuzz(func(o *SysdlOptions) { o.FuzzN = 400 })},
		{"fuzz-faults.golden", fuzz(func(o *SysdlOptions) { o.FuzzN, o.FuzzFaults = 100, true })},
		{"fuzz-link-models.golden", fuzz(func(o *SysdlOptions) { o.FuzzN, o.FuzzLinkModels = 200, true })},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile("testdata/" + tc.golden)
			if err != nil {
				t.Fatal(err)
			}
			var b strings.Builder
			if err := tc.render(&b); err != nil {
				t.Fatal(err)
			}
			if got := b.String(); got != string(want) {
				t.Fatalf("output differs from testdata/%s:\n%s", tc.golden, got)
			}
		})
	}
}
