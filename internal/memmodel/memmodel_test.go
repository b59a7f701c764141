package memmodel

import (
	"testing"
	"testing/quick"
)

func TestStageTime(t *testing.T) {
	p := Params{Cells: 3, Words: 10, QueueAccess: 1, MemAccess: 2, Compute: 3}
	if got := p.StageTime(systolic); got != 5 { // 2*1 + 3
		t.Fatalf("systolic stage time %d", got)
	}
	if got := p.StageTime(memToMem); got != 13 { // 5 + 4*2
		t.Fatalf("mem-to-mem stage time %d", got)
	}
}

func TestMakespanClosedForm(t *testing.T) {
	p := Params{Cells: 3, Words: 4, QueueAccess: 1, MemAccess: 1, Compute: 0}
	// (3+4-1) * (2*1+0) = 12
	if got := p.Makespan(systolic); got != 12 {
		t.Fatalf("makespan %d", got)
	}
}

func TestSimulateMatchesClosedForm(t *testing.T) {
	for _, p := range DefaultSweep() {
		for _, m := range []Model{systolic, memToMem} {
			if p.Simulate(m) != p.Makespan(m) {
				t.Fatalf("mismatch for %+v model %v", p, m)
			}
		}
	}
}

func TestQuickSimulateMatchesClosedForm(t *testing.T) {
	f := func(k, n, qa, ma, cp uint8) bool {
		p := Params{
			Cells:       int(k)%20 + 1,
			Words:       int(n)%200 + 1,
			QueueAccess: int(qa) % 4,
			MemAccess:   int(ma)%4 + 1,
			Compute:     int(cp) % 4,
		}
		return p.Simulate(systolic) == p.Makespan(systolic) &&
			p.Simulate(memToMem) == p.Makespan(memToMem)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSpeedupAlwaysAtLeastOne(t *testing.T) {
	f := func(qa, ma, cp uint8) bool {
		p := Params{
			Cells: 3, Words: 8,
			QueueAccess: int(qa)%4 + 1,
			MemAccess:   int(ma) % 8,
			Compute:     int(cp) % 8,
		}
		return p.Speedup() >= 1.0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSpeedupHeadlineCase(t *testing.T) {
	// The paper's qualitative claim: with memory as the bottleneck,
	// systolic communication wins by the 4·mem term. Unit costs give
	// (2+1+4)/(2+1) = 7/3.
	p := Params{Cells: 3, Words: 64, QueueAccess: 1, MemAccess: 1, Compute: 1}
	if got := p.Speedup(); got < 2.3 || got > 2.4 {
		t.Fatalf("speedup %.3f, want ≈2.33", got)
	}
	// Expensive memory (4 cycles): (3+16)/3 ≈ 6.33.
	p.MemAccess = 4
	if got := p.Speedup(); got < 6.3 || got > 6.4 {
		t.Fatalf("speedup %.3f, want ≈6.33", got)
	}
}

func TestZeroSizes(t *testing.T) {
	p := Params{}
	if p.Makespan(systolic) != 0 || p.Simulate(systolic) != 0 {
		t.Fatal("empty pipeline should cost 0")
	}
}

func TestTableCrossChecks(t *testing.T) {
	rows, err := Table(DefaultSweep())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(DefaultSweep()) {
		t.Fatalf("rows=%d", len(rows))
	}
	for _, r := range rows {
		if r.MemToMem <= r.Systolic {
			t.Fatalf("mem-to-mem not slower: %v", r)
		}
		if r.String() == "" {
			t.Fatal("empty row render")
		}
	}
}

func TestModelString(t *testing.T) {
	if systolic.String() != "systolic" || memToMem.String() != "mem-to-mem" {
		t.Fatal("model names wrong")
	}
}
