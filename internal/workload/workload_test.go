package workload

import (
	"strings"
	"testing"

	"systolic/internal/assign"
	"systolic/internal/crossoff"
	"systolic/internal/label"
	"systolic/internal/machine"
)

// runPipeline analyzes and executes a workload under the compatible
// policy with its default parameters, failing the test on any stage.
func runPipeline(t *testing.T, w *Workload, queues, capacity int) *machine.Result {
	t.Helper()
	lab, err := label.Assign(w.Program, label.Options{})
	if err != nil {
		t.Fatalf("%s: labeling: %v", w.Name, err)
	}
	m, err := machine.Compile(w.Program, w.Topology, nil, lab.Dense)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(machine.ExecOptions{
		QueuesPerLink: queues,
		Capacity:      capacity,
		Policy:        assign.Compatible(),
		Logic:         w.Logic,
	})
	if err != nil {
		t.Fatalf("%s: sim: %v", w.Name, err)
	}
	if !res.Completed {
		t.Fatalf("%s: %s\n%s", w.Name, res.Outcome(), machine.DescribeBlocked(w.Program, res.Blocked))
	}
	if err := w.CheckReceived(res.Received); err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	return res
}

// TestFig2GoldenProgram pins the exact op sequences of Fig 2.
func TestFig2GoldenProgram(t *testing.T) {
	p := Fig2().Program
	want := map[string]string{
		"Host": "W(XA) W(XA) W(XA) R(YA) W(XA) R(YA)",
		"C1":   "R(XA) W(XB) R(XA) W(XB) R(XA) R(YB) W(XB) W(YA) R(XA) R(YB) W(YA)",
		"C2":   "R(XB) W(XC) R(XB) R(YC) W(XC) W(YB) R(XB) R(YC) W(YB)",
		"C3":   "R(XC) W(YC) R(XC) W(YC)",
	}
	got := p.String()
	for cell, ops := range want {
		line := cell + ": " + ops
		if !strings.Contains(got, line) {
			t.Errorf("missing program line %q in:\n%s", line, got)
		}
	}
}

func TestFig2MessageDeclarations(t *testing.T) {
	p := Fig2().Program
	wantWords := map[string]int{"XA": 4, "XB": 3, "XC": 2, "YA": 2, "YB": 2, "YC": 2}
	for name, words := range wantWords {
		m, ok := p.MessageByName(name)
		if !ok {
			t.Fatalf("message %s missing", name)
		}
		if m.Words != words {
			t.Errorf("%s has %d words, want %d", name, m.Words, words)
		}
	}
}

func TestFig2OutputsAreTheConvolution(t *testing.T) {
	w := Fig2()
	// Weights 2,3,5 over inputs 1,4,9,16: y1 = 2·1+3·4+5·9 = 59,
	// y2 = 2·4+3·9+5·16 = 115.
	want := w.Expected["YA"]
	if len(want) != 2 || want[0] != 59 || want[1] != 115 {
		t.Fatalf("expected outputs %v", want)
	}
	runPipeline(t, w, w.DefaultQueues, w.DefaultCapacity)
}

func TestFIRSweep(t *testing.T) {
	for _, tc := range []struct{ k, n int }{
		{1, 1}, {1, 5}, {2, 3}, {3, 2}, {4, 8}, {5, 1}, {8, 16},
	} {
		w, err := FIR(FIROptions{Taps: tc.k, Outputs: tc.n})
		if err != nil {
			t.Fatal(err)
		}
		if !crossoff.Classify(w.Program, crossoff.Options{}) {
			t.Fatalf("FIR(%d,%d) not deadlock-free", tc.k, tc.n)
		}
		runPipeline(t, w, w.DefaultQueues, w.DefaultCapacity)
	}
}

func TestFIRValidation(t *testing.T) {
	if _, err := FIR(FIROptions{Taps: 0, Outputs: 1}); err == nil {
		t.Fatal("Taps 0 accepted")
	}
	if _, err := FIR(FIROptions{Taps: 2, Outputs: 2, Weights: []float64{1}}); err == nil {
		t.Fatal("short weights accepted")
	}
	if _, err := FIR(FIROptions{Taps: 2, Outputs: 2, Inputs: []float64{1}}); err == nil {
		t.Fatal("short inputs accepted")
	}
	if _, err := FIR(FIROptions{Taps: 27, Outputs: 1, PaperNames: true}); err == nil {
		t.Fatal("27 paper-named taps accepted")
	}
}

func TestMatVec(t *testing.T) {
	for _, n := range []int{1, 2, 4, 7} {
		w, err := MatVec(MatVecOptions{N: n})
		if err != nil {
			t.Fatal(err)
		}
		if !crossoff.Classify(w.Program, crossoff.Options{}) {
			t.Fatalf("matvec(%d) not deadlock-free", n)
		}
		runPipeline(t, w, w.DefaultQueues, w.DefaultCapacity)
	}
}

func TestMatVecExplicitOperands(t *testing.T) {
	w, err := MatVec(MatVecOptions{
		N: 2,
		A: [][]float64{{1, 2}, {3, 4}},
		X: []float64{10, 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := w.Expected["Y"]
	if want[0] != 210 || want[1] != 430 {
		t.Fatalf("expected %v", want)
	}
	runPipeline(t, w, w.DefaultQueues, w.DefaultCapacity)
}

func TestMatVecValidation(t *testing.T) {
	if _, err := MatVec(MatVecOptions{N: 0}); err == nil {
		t.Fatal("N=0 accepted")
	}
	if _, err := MatVec(MatVecOptions{N: 2, A: [][]float64{{1}}, X: []float64{1, 2}}); err == nil {
		t.Fatal("ragged A accepted")
	}
}

func TestMatMulShapes(t *testing.T) {
	for _, tc := range []struct{ r, k, c int }{
		{1, 1, 2}, {2, 3, 2}, {3, 2, 4}, {4, 4, 4},
	} {
		w, err := MatMul(MatMulOptions{Rows: tc.r, Inner: tc.k, Cols: tc.c})
		if err != nil {
			t.Fatal(err)
		}
		if !crossoff.Classify(w.Program, crossoff.Options{}) {
			t.Fatalf("matmul(%dx%dx%d) not deadlock-free", tc.r, tc.k, tc.c)
		}
		runPipeline(t, w, w.DefaultQueues, w.DefaultCapacity)
	}
}

func TestMatMulExplicitOperands(t *testing.T) {
	w, err := MatMul(MatMulOptions{
		Rows: 2, Inner: 2, Cols: 2,
		A: [][]float64{{1, 2}, {3, 4}},
		B: [][]float64{{5, 6}, {7, 8}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// C = [[19 22],[43 50]]; collectors hold column 1, messages carry
	// column 0.
	if got := w.Expected["C0.0"]; got[0] != 19 {
		t.Fatalf("C0.0 expected %v", got)
	}
	if got := w.Expected["C1.0"]; got[0] != 43 {
		t.Fatalf("C1.0 expected %v", got)
	}
	runPipeline(t, w, w.DefaultQueues, w.DefaultCapacity)
}

func TestMatMulValidation(t *testing.T) {
	if _, err := MatMul(MatMulOptions{Rows: 1, Inner: 1, Cols: 1}); err == nil {
		t.Fatal("Cols=1 accepted (no collector possible)")
	}
}

func TestSortPolite(t *testing.T) {
	for _, n := range []int{1, 2, 5, 9} {
		w, err := Sort(SortOptions{N: n})
		if err != nil {
			t.Fatal(err)
		}
		if !crossoff.Classify(w.Program, crossoff.Options{}) {
			t.Fatalf("polite sort(%d) not strictly deadlock-free", n)
		}
		runPipeline(t, w, w.DefaultQueues, w.DefaultCapacity)
	}
}

func TestSortSymmetricNeedsLookahead(t *testing.T) {
	w, err := Sort(SortOptions{N: 6, Symmetric: true})
	if err != nil {
		t.Fatal(err)
	}
	if crossoff.Classify(w.Program, crossoff.Options{}) {
		t.Fatal("symmetric sort strictly admitted")
	}
	if !crossoff.Classify(w.Program, crossoff.Options{Lookahead: true, Budget: crossoff.UniformBudget(1)}) {
		t.Fatal("symmetric sort rejected with budget 1")
	}
	// Runs fine with 1-word buffering despite the strict verdict.
	lab, err := label.Assign(w.Program, label.Options{Lookahead: true, Budget: crossoff.UniformBudget(1)})
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.Compile(w.Program, w.Topology, nil, lab.Dense)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(machine.ExecOptions{
		QueuesPerLink: 2,
		Capacity:      1,
		Policy:        assign.Compatible(),
		Logic:         w.Logic,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("symmetric sort run %s\n%s", res.Outcome(), machine.DescribeBlocked(w.Program, res.Blocked))
	}
	if err := w.CheckReceived(res.Received); err != nil {
		t.Fatal(err)
	}
}

func TestSortExplicitValues(t *testing.T) {
	w, err := Sort(SortOptions{Values: []float64{5, 1, 4, 2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	runPipeline(t, w, w.DefaultQueues, w.DefaultCapacity)
	for j, want := range []machine.Word{1, 2, 3, 4, 5} {
		got := w.Expected["V"+string(rune('1'+j))]
		if got[0] != want {
			t.Fatalf("V%d expected %v, want %v", j+1, got, want)
		}
	}
}

func TestSortValidation(t *testing.T) {
	if _, err := Sort(SortOptions{}); err == nil {
		t.Fatal("empty sort accepted")
	}
}

func TestFigureClassifications(t *testing.T) {
	cases := []struct {
		w          *Workload
		strictFree bool
		la2Free    bool
	}{
		{Fig2(), true, true},
		{Fig3(), true, true},
		{Fig5P1(), false, true},
		{Fig5P2(), false, true},
		{Fig5P3(), false, false},
		{Fig6(), true, true},
		{Fig7(Fig7Options{}), true, true},
		{Fig8(), true, true},
		{Fig9(), true, true},
	}
	for _, tc := range cases {
		if got := crossoff.Classify(tc.w.Program, crossoff.Options{}); got != tc.strictFree {
			t.Errorf("%s: strict=%v, want %v", tc.w.Name, got, tc.strictFree)
		}
		got := crossoff.Classify(tc.w.Program, crossoff.Options{Lookahead: true, Budget: crossoff.UniformBudget(2)})
		if got != tc.la2Free {
			t.Errorf("%s: lookahead2=%v, want %v", tc.w.Name, got, tc.la2Free)
		}
	}
}

func TestFig7Sizing(t *testing.T) {
	w := Fig7(Fig7Options{LenA: 6, LenBC: 2})
	a, _ := w.Program.MessageByName("A")
	b, _ := w.Program.MessageByName("B")
	if a.Words != 6 || b.Words != 2 {
		t.Fatalf("sizing ignored: A=%d B=%d", a.Words, b.Words)
	}
	if !crossoff.Classify(w.Program, crossoff.Options{}) {
		t.Fatal("sized Fig 7 not deadlock-free")
	}
}

func TestFig8RelatedClassAndLabels(t *testing.T) {
	w := Fig8()
	uf := label.Related(w.Program)
	a, _ := w.Program.MessageByName("A")
	b, _ := w.Program.MessageByName("B")
	if !uf.Same(int(a.ID), int(b.ID)) {
		t.Fatal("Fig 8's A and B not related")
	}
	lab, err := label.Assign(w.Program, label.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if lab.Dense[a.ID] != lab.Dense[b.ID] {
		t.Fatal("Fig 8's A and B labels differ")
	}
}

func TestFig9RunsUnderStatic(t *testing.T) {
	// §7.1's example: two queues between C1 and C2 assigned statically.
	w := Fig9()
	lab, err := label.Assign(w.Program, label.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.Compile(w.Program, w.Topology, nil, lab.Dense)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(machine.ExecOptions{
		QueuesPerLink: 2,
		Capacity:      1,
		Policy:        assign.Static(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("static Fig 9 run %s", res.Outcome())
	}
}

func TestCheckReceivedErrors(t *testing.T) {
	w := Fig2()
	// Unknown message name.
	w2 := *w
	w2.Expected = map[string][]machine.Word{"NOPE": {1}}
	if err := w2.CheckReceived(make([][]machine.Word, w.Program.NumMessages())); err == nil {
		t.Fatal("unknown expected message accepted")
	}
	// Wrong count.
	w2.Expected = map[string][]machine.Word{"YA": {1, 2, 3}}
	if err := w2.CheckReceived(make([][]machine.Word, w.Program.NumMessages())); err == nil {
		t.Fatal("word-count mismatch accepted")
	}
	// Wrong value.
	recv := make([][]machine.Word, w.Program.NumMessages())
	ya, _ := w.Program.MessageByName("YA")
	recv[ya.ID] = []machine.Word{59, 999}
	if err := w.CheckReceived(recv); err == nil {
		t.Fatal("wrong value accepted")
	}
	recv[ya.ID] = []machine.Word{59, 115}
	if err := w.CheckReceived(recv); err != nil {
		t.Fatalf("correct values rejected: %v", err)
	}
}
