package cli

import (
	"os"
	"strings"
	"testing"
)

// TestFuzzUnderBudgetGolden holds `sysdl fuzz -n 150 -seed 1 -queues 1`
// to its committed report byte for byte: the shrinker, the program
// rewriter and the DSL formatter all show in the minimized
// counterexamples it prints.
func TestFuzzUnderBudgetGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/fuzz-under-budget.golden")
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultSysdlOptions()
	opts.FuzzN = 150
	opts.Queues = 1
	var b strings.Builder
	if code, err := Sysdl(&b, "fuzz", "", opts); err != nil || code != 0 {
		t.Fatalf("exit %d, err %v", code, err)
	}
	if got := b.String(); got != string(want) {
		t.Fatalf("report differs from testdata/fuzz-under-budget.golden:\n%s", got)
	}
}
