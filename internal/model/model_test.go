package model

import (
	"fmt"
	"maps"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// twoCell builds a minimal valid program: A: C1→C2, 2 words.
func twoCell(t *testing.T) *Program {
	t.Helper()
	b := NewBuilder()
	c1 := b.AddCell("C1")
	c2 := b.AddCell("C2")
	a := b.DeclareMessage("A", c1, c2, 2)
	b.WriteN(c1, a, 2)
	b.ReadN(c2, a, 2)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBuildValidProgram(t *testing.T) {
	p := twoCell(t)
	if p.NumCells() != 2 || p.NumMessages() != 1 {
		t.Fatalf("cells=%d msgs=%d", p.NumCells(), p.NumMessages())
	}
	if p.TotalOps() != 4 {
		t.Fatalf("TotalOps=%d, want 4", p.TotalOps())
	}
	m, ok := p.MessageByName("A")
	if !ok || m.Words != 2 || m.Sender != 0 || m.Receiver != 1 {
		t.Fatalf("MessageByName wrong: %+v ok=%v", m, ok)
	}
	if _, ok := p.MessageByName("nope"); ok {
		t.Fatal("found nonexistent message")
	}
}

func TestOpKindString(t *testing.T) {
	if Read.String() != "R" || Write.String() != "W" {
		t.Fatal("OpKind.String wrong")
	}
}

func TestOpString(t *testing.T) {
	p := twoCell(t)
	if got := p.OpString(Op{Kind: Write, Msg: 0}); got != "W(A)" {
		t.Fatalf("OpString = %q", got)
	}
}

func TestProgramString(t *testing.T) {
	s := twoCell(t).String()
	if !strings.Contains(s, "C1: W(A) W(A)") || !strings.Contains(s, "C2: R(A) R(A)") {
		t.Fatalf("String output:\n%s", s)
	}
}

func TestValidationWordCountMismatch(t *testing.T) {
	b := NewBuilder()
	c1 := b.AddCell("C1")
	c2 := b.AddCell("C2")
	a := b.DeclareMessage("A", c1, c2, 3)
	b.WriteN(c1, a, 2) // one short
	b.ReadN(c2, a, 3)
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "writes 2") {
		t.Fatalf("expected write-count error, got %v", err)
	}
}

func TestValidationReadCountMismatch(t *testing.T) {
	b := NewBuilder()
	c1 := b.AddCell("C1")
	c2 := b.AddCell("C2")
	a := b.DeclareMessage("A", c1, c2, 1)
	b.Write(c1, a)
	// no read at all
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "reads 0") {
		t.Fatalf("expected read-count error, got %v", err)
	}
}

func TestValidationWriteInWrongCell(t *testing.T) {
	b := NewBuilder()
	c1 := b.AddCell("C1")
	c2 := b.AddCell("C2")
	a := b.DeclareMessage("A", c1, c2, 1)
	b.Write(c2, a) // receiver writing its own inbound message
	b.Read(c2, a)
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "sender") {
		t.Fatalf("expected wrong-sender error, got %v", err)
	}
}

func TestValidationReadInWrongCell(t *testing.T) {
	b := NewBuilder()
	c1 := b.AddCell("C1")
	c2 := b.AddCell("C2")
	a := b.DeclareMessage("A", c1, c2, 1)
	b.Write(c1, a)
	b.Read(c1, a)
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "receiver") {
		t.Fatalf("expected wrong-receiver error, got %v", err)
	}
}

func TestValidationDuplicateCellName(t *testing.T) {
	b := NewBuilder()
	b.AddCell("X")
	b.AddCell("X")
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "duplicate cell") {
		t.Fatalf("expected duplicate-cell error, got %v", err)
	}
}

func TestValidationDuplicateMessageName(t *testing.T) {
	b := NewBuilder()
	c1 := b.AddCell("C1")
	c2 := b.AddCell("C2")
	b.DeclareMessage("A", c1, c2, 1)
	b.DeclareMessage("A", c2, c1, 1)
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "duplicate message") {
		t.Fatalf("expected duplicate-message error, got %v", err)
	}
}

func TestValidationSelfMessage(t *testing.T) {
	b := NewBuilder()
	c1 := b.AddCell("C1")
	b.AddCell("C2")
	b.DeclareMessage("A", c1, c1, 1)
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "sender and receiver") {
		t.Fatalf("expected self-message error, got %v", err)
	}
}

func TestValidationNonpositiveWords(t *testing.T) {
	b := NewBuilder()
	c1 := b.AddCell("C1")
	c2 := b.AddCell("C2")
	b.DeclareMessage("A", c1, c2, 0)
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "not positive") {
		t.Fatalf("expected word-count error, got %v", err)
	}
}

func TestValidationEmptyProgram(t *testing.T) {
	if _, err := NewBuilder().Build(); err == nil {
		t.Fatal("empty program built")
	}
}

func TestHostFlag(t *testing.T) {
	b := NewBuilder()
	h := b.AddHost("Host")
	c := b.AddCell("C1")
	a := b.DeclareMessage("A", h, c, 1)
	b.Write(h, a)
	b.Read(c, a)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !p.Cell(h).Host || p.Cell(c).Host {
		t.Fatal("host flags wrong")
	}
}

func TestAddCellsNames(t *testing.T) {
	b := NewBuilder()
	ids := b.AddCells("P", 3)
	c2 := b.AddCell("Q")
	a := b.DeclareMessage("A", ids[0], c2, 1)
	b.Write(ids[0], a)
	b.Read(c2, a)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{"P1", "P2", "P3"} {
		if p.Cell(CellID(i)).Name != want {
			t.Errorf("cell %d named %q, want %q", i, p.Cell(CellID(i)).Name, want)
		}
	}
}

func TestMustBuildPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustBuild did not panic")
		}
	}()
	b := NewBuilder()
	b.AddCell("X")
	b.AddCell("X")
	b.MustBuild()
}

// TestOpOnUndeclaredCell: code is stored per declared cell, so an op on
// a cell id that was never declared has nowhere to go. It used to be
// dropped silently (and surface as an unrelated "sender writes 0"); it
// is a builder error now, and declaring the cell afterwards does not
// redeem it — the first builder error wins, as for the others.
func TestOpOnUndeclaredCell(t *testing.T) {
	for name, op := range map[string]func(b *Builder, c CellID, m MessageID){
		"Write":     func(b *Builder, c CellID, m MessageID) { b.Write(c, m) },
		"Read":      func(b *Builder, c CellID, m MessageID) { b.Read(c, m) },
		"WriteN":    func(b *Builder, c CellID, m MessageID) { b.WriteN(c, m, 2) },
		"ReadN":     func(b *Builder, c CellID, m MessageID) { b.ReadN(c, m, 2) },
		"AppendOps": func(b *Builder, c CellID, m MessageID) { b.AppendOps(c, []Op{{Kind: Write, Msg: m}}) },
	} {
		for _, c := range []CellID{2, -1} {
			b := NewBuilder()
			c1 := b.AddCell("C1")
			c2 := b.AddCell("C2")
			a := b.DeclareMessage("A", c1, c2, 1)
			b.Write(c1, a).Read(c2, a)
			op(b, c, a)
			b.AddCell("C3") // too late
			_, err := b.Build()
			want := fmt.Sprintf("model: op on undeclared cell %d", c)
			if err == nil || err.Error() != want {
				t.Errorf("%s on cell %d: Build error %v, want %q", name, c, err, want)
			}
		}
	}
	// An earlier builder error still wins.
	b := NewBuilder()
	b.AddCell("X")
	b.AddCell("X")
	b.Write(7, 0)
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "duplicate cell") {
		t.Errorf("first error should win, got %v", err)
	}
}

// TestZeroBuilderIsUsable holds the doc comment to its word.
func TestZeroBuilderIsUsable(t *testing.T) {
	var b Builder
	c1 := b.AddCell("C1")
	c2 := b.AddHost("C2")
	a := b.DeclareMessage("A", c1, c2, 1)
	b.Write(c1, a).Read(c2, a)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.MessageByName("A"); !ok || p.TotalOps() != 2 {
		t.Fatalf("zero Builder built %v", p)
	}
}

// TestBuilderLookups: the builder's name tables answer for what has
// been declared so far — they are what the DSL parser resolves against.
func TestBuilderLookups(t *testing.T) {
	b := NewSizedBuilder(2, 1, 2)
	if _, ok := b.CellByName("C1"); ok {
		t.Fatal("empty builder knows C1")
	}
	c1 := b.AddCell("C1")
	c2 := b.AddCell("C2")
	a := b.DeclareMessage("A", c1, c2, 1)
	if id, ok := b.CellByName("C2"); !ok || id != c2 {
		t.Fatalf("CellByName(C2) = %d, %v", id, ok)
	}
	if id, ok := b.MessageByName("A"); !ok || id != a {
		t.Fatalf("MessageByName(A) = %d, %v", id, ok)
	}
	if _, ok := b.MessageByName("C1"); ok {
		t.Fatal("cell name found among messages: the namespaces are separate")
	}
}

// TestBuildHandsOverAndStaysRepeatable pins the hand-over contract:
// Build gives the Program the builder's own storage (no copy), a built
// Program never changes whatever the builder does next, a failed Build
// hands nothing over, and Build after further mutation sees everything.
func TestBuildHandsOverAndStaysRepeatable(t *testing.T) {
	b := NewBuilder()
	c1 := b.AddCell("C1")
	c2 := b.AddCell("C2")
	a := b.DeclareMessage("A", c1, c2, 2)
	b.WriteN(c1, a, 2).Read(c2, a)
	if _, err := b.Build(); err == nil {
		t.Fatal("one read short, yet Build succeeded")
	}
	b.Read(c2, a) // repair after the failed Build
	p1, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if &p1.cells[0] != &b.cells[0] || &p1.ops[0] != &b.log[0][0] {
		t.Error("Build copied the builder's storage instead of handing it over")
	}
	p1again, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p1, p1again) {
		t.Error("a second Build with no mutation in between built a different program")
	}
	snapshot := &Program{
		cells: slices.Clone(p1.cells), messages: slices.Clone(p1.messages),
		ops: slices.Clone(p1.ops), off: slices.Clone(p1.off), byName: maps.Clone(p1.byName),
	}

	// Grow the program: a third cell, a second message, more code on
	// an existing cell.
	c3 := b.AddCell("C3")
	m2 := b.DeclareMessage("B", c2, c3, 1)
	b.Write(c2, m2).Read(c3, m2)
	p2, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p1, snapshot) {
		t.Errorf("mutating the builder after Build changed the built program:\n%v\nwas\n%v", p1, snapshot)
	}
	if _, ok := p1.MessageByName("B"); ok {
		t.Error("the first program's name table sees a message declared after it was built")
	}
	if p2.NumCells() != 3 || p2.NumMessages() != 2 || len(p2.Code(c2)) != 3 || p2.TotalOps() != 6 {
		t.Errorf("second Build lost or duplicated declarations:\n%v", p2)
	}
	if &p2.cells[0] == &p1.cells[0] || &p2.ops[0] == &p1.ops[0] {
		t.Error("the second program shares storage with the first")
	}
}

// cpuTime is the CPU time f takes, user and system. Unlike the wall
// clock it does not run while other processes hold the cores. The heap
// is collected before f and the collector is off while f runs, so its
// background workers, whose CPU time depends on what earlier work left
// on the heap rather than on f, do not count.
func cpuTime(t testing.TB, f func()) time.Duration {
	var before, after syscall.Rusage
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &before); err != nil {
		t.Fatal(err)
	}
	f()
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &after); err != nil {
		t.Fatal(err)
	}
	return time.Duration(after.Utime.Nano() - before.Utime.Nano() + after.Stime.Nano() - before.Stime.Nano())
}

// TestBuilderAddCellLinear is the CPU-time-relative gate on the
// duplicate check: AddCell used to rescan every earlier name, so 4× the
// cells cost 16× the time. Linear is 4×; the gate allows 8× (best of
// five, to shrug off a noisy neighbour's cache traffic). Both sizes,
// 2k and 8k cells on a builder sized for them, keep the name table and
// the cell slice inside a core's cache and never grow them, so the
// ratio measures the check's work and not the larger table's misses
// (16k against 64k cells on an unsized builder read 5–6 idle); each
// measurement builds 64 builders, a few milliseconds of CPU.
func TestBuilderAddCellLinear(t *testing.T) {
	if raceEnabled {
		t.Skip("timing ratio is not meaningful under -race")
	}
	const reps = 64
	names := make([]string, 8<<10)
	for i := range names {
		names[i] = "P" + strconv.Itoa(i)
	}
	best := func(n int) time.Duration {
		min := time.Duration(math.MaxInt64)
		for try := 0; try < 5; try++ {
			var b *Builder
			if d := cpuTime(t, func() {
				for range reps {
					b = NewSizedBuilder(n, 0, 0)
					for _, name := range names[:n] {
						b.AddCell(name)
					}
				}
			}); d < min {
				min = d
			}
			if b.err != nil {
				t.Fatal(b.err)
			}
		}
		return min
	}
	small, large := best(2<<10), best(8<<10)
	t.Logf("%d× AddCell ×2048: %v of CPU, ×8192: %v (ratio %.1f)", reps, small, large, float64(large)/float64(small))
	if large > 8*small {
		t.Errorf("8k AddCell took %v of CPU, more than 8× the %v of 2k: the duplicate check is not O(1)", large, small)
	}
}
