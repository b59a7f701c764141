package cli

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSysdlRunLinkModel: `sysdl run -link-model` retimes the
// interconnect, completes anyway (every shipped model is delay-only),
// and reports the model's Theorem 1 impact.
func TestSysdlRunLinkModel(t *testing.T) {
	opts := DefaultSysdlOptions()
	opts.LinkModel = "fixed,delay=3"
	var b strings.Builder
	code, err := Sysdl(&b, "run", sampleDSL, opts)
	if err != nil || code != 0 {
		t.Fatalf("code=%d err=%v\n%s", code, err, b.String())
	}
	out := b.String()
	for _, want := range []string{
		"outcome: completed",
		"link model fixed,delay=3: guarantee-holds=true max-stretch=3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("retimed run output missing %q:\n%s", want, out)
		}
	}
}

// TestSysdlRunLinkModelNoop: a delay-1 fixed plan is byte-identical
// to no -link-model flag at all — no link-model section, same report.
func TestSysdlRunLinkModelNoop(t *testing.T) {
	var clean, noop strings.Builder
	if code, err := Sysdl(&clean, "run", sampleDSL, DefaultSysdlOptions()); err != nil || code != 0 {
		t.Fatalf("clean run: code=%d err=%v", code, err)
	}
	opts := DefaultSysdlOptions()
	opts.LinkModel = "fixed,delay=1"
	if code, err := Sysdl(&noop, "run", sampleDSL, opts); err != nil || code != 0 {
		t.Fatalf("unit-model run: code=%d err=%v", code, err)
	}
	if clean.String() != noop.String() {
		t.Fatalf("delay-1 model changed the output:\n%s\nvs\n%s", clean.String(), noop.String())
	}
}

// TestSysdlRunLinkModelBadSpec: malformed specs are usage errors, not
// runs.
func TestSysdlRunLinkModelBadSpec(t *testing.T) {
	for _, spec := range []string{"fixed,delay=nope", "warp9", "fixed,delay=2,delay=3"} {
		opts := DefaultSysdlOptions()
		opts.LinkModel = spec
		var b strings.Builder
		if code, err := Sysdl(&b, "run", sampleDSL, opts); err == nil || code != 2 {
			t.Errorf("spec %q: code=%d err=%v, want usage error", spec, code, err)
		}
	}
}

// TestSysdlSweepLinkModels: the -sweep-link-models axis multiplies the
// grid and names each model in the table.
func TestSysdlSweepLinkModels(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "..", "examples", "dsl", "fig7.sys"))
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultSysdlOptions()
	opts.SweepPolicies = "compatible"
	opts.SweepQueues = "2"
	opts.SweepCapacities = "1"
	opts.SweepLookaheads = "0"
	opts.SweepLinkModels = ";fixed,delay=3"
	var b strings.Builder
	code, err := Sysdl(&b, "sweep", string(src), opts)
	if err != nil || code != 0 {
		t.Fatalf("code=%d err=%v\n%s", code, err, b.String())
	}
	out := b.String()
	for _, want := range []string{
		"sweeping 2 configurations",
		"link-model",
		"unit",
		"fixed,delay=3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("sweep output missing %q:\n%s", want, out)
		}
	}

	opts.SweepLinkModels = "fixed,delay=oops"
	var bad strings.Builder
	if code, _ := Sysdl(&bad, "sweep", string(src), opts); code == 0 {
		t.Error("malformed -sweep-link-models spec accepted")
	}
}

// TestSysdlFuzzLinkModels: `sysdl fuzz -link-models` runs the
// link-timing invariants over a small batch without violations, and
// runs more simulations than a plain fuzz of the same width.
func TestSysdlFuzzLinkModels(t *testing.T) {
	base := DefaultSysdlOptions()
	base.FuzzN = 12
	var clean strings.Builder
	if code, err := fuzz(&clean, base); err != nil || code != 0 {
		t.Fatalf("clean fuzz: code=%d err=%v\n%s", code, err, clean.String())
	}
	retimed := base
	retimed.FuzzLinkModels = true
	var b strings.Builder
	if code, err := fuzz(&b, retimed); err != nil || code != 0 {
		t.Fatalf("link-model fuzz: code=%d err=%v\n%s", code, err, b.String())
	}
	if strings.Contains(b.String(), "VIOLATION") {
		t.Fatalf("link-model fuzz reported violations:\n%s", b.String())
	}
}
