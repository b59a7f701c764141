package cli

import (
	"strings"
	"testing"
)

// TestFuzzVerb: the fuzz verb needs no source text, reports zero
// violations on the shipped analyzer, and renders byte-identically
// across invocations and worker counts.
func TestFuzzVerb(t *testing.T) {
	opts := DefaultSysdlOptions()
	opts.FuzzN = 60

	var first string
	for _, workers := range []int{1, 0} {
		o := opts
		o.Workers = workers
		var b strings.Builder
		code, err := Sysdl(&b, "fuzz", "", o)
		if err != nil {
			t.Fatal(err)
		}
		if code != 0 {
			t.Fatalf("exit code %d, want 0\n%s", code, b.String())
		}
		out := b.String()
		if !strings.Contains(out, "invariant violations: 0") {
			t.Fatalf("oracle reported violations:\n%s", out)
		}
		if first == "" {
			first = out
		} else if out != first {
			t.Fatalf("fuzz output differs across worker counts:\n%s\nvs\n%s", first, out)
		}
	}
}

// TestFuzzVerbUnderBudget: forcing -queues 1 below the Theorem 1
// bound demonstrates the predicted deadlocks without flipping the
// exit code (they are expected counterexamples).
func TestFuzzVerbUnderBudget(t *testing.T) {
	opts := DefaultSysdlOptions()
	opts.FuzzN = 40
	opts.FuzzMutations = 0
	opts.Queues = 1

	var b strings.Builder
	code, err := Sysdl(&b, "fuzz", "", opts)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("exit code %d, want 0\n%s", code, b.String())
	}
	out := b.String()
	if !strings.Contains(out, "under-budget-deadlock") {
		t.Fatalf("want an under-budget counterexample in:\n%s", out)
	}
	if !strings.Contains(out, "minimized program:") {
		t.Fatalf("want a minimized program in:\n%s", out)
	}
	if !strings.Contains(out, "invariant violations: 0") {
		t.Fatalf("under-budget probe must not report violations:\n%s", out)
	}
}

// TestFuzzVerbFaults: `sysdl fuzz -faults` seeds a degraded-array
// check per scenario; on the shipped runner that must stay violation-
// free. An explicit -fault spec rides along the same way.
func TestFuzzVerbFaults(t *testing.T) {
	opts := DefaultSysdlOptions()
	opts.FuzzN = 40
	opts.FuzzFaults = true

	var b strings.Builder
	code, err := Sysdl(&b, "fuzz", "", opts)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("exit code %d, want 0\n%s", code, b.String())
	}
	if out := b.String(); !strings.Contains(out, "invariant violations: 0") {
		t.Fatalf("faulted fuzz reported violations:\n%s", out)
	}

	opts = DefaultSysdlOptions()
	opts.FuzzN = 30
	opts.Fault = "cell:0:slow=2"
	b.Reset()
	code, err = Sysdl(&b, "fuzz", "", opts)
	if err != nil {
		t.Fatal(err)
	}
	if code != 0 {
		t.Fatalf("explicit-plan fuzz: exit code %d\n%s", code, b.String())
	}
	if out := b.String(); !strings.Contains(out, "invariant violations: 0") {
		t.Fatalf("explicit-plan fuzz reported violations:\n%s", out)
	}
}

// TestFuzzVerbBadFaultSpec: a malformed -fault spec is a usage error.
func TestFuzzVerbBadFaultSpec(t *testing.T) {
	opts := DefaultSysdlOptions()
	opts.Fault = "cell:0:melted"
	var b strings.Builder
	if code, err := Sysdl(&b, "fuzz", "", opts); err == nil || code != 2 {
		t.Fatalf("code=%d err=%v, want usage error", code, err)
	}
}

// TestFuzzVerbBadTopology: unknown topology names are usage errors.
func TestFuzzVerbBadTopology(t *testing.T) {
	opts := DefaultSysdlOptions()
	opts.FuzzTopology = "torus"
	var b strings.Builder
	code, err := Sysdl(&b, "fuzz", "", opts)
	if err == nil || code != 2 {
		t.Fatalf("code=%d err=%v, want usage error", code, err)
	}
}
