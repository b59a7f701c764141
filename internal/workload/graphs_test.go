package workload

import (
	"math"
	"testing"

	"systolic/internal/assign"
	"systolic/internal/crossoff"
	"systolic/internal/label"
	"systolic/internal/machine"
)

// runFamily pushes a workload through the full avoidance pipeline
// (classify, label, simulate with the compatible policy) and returns
// the completed result.
func runFamily(t *testing.T, w *Workload) *machine.Result {
	t.Helper()
	if !crossoff.Classify(w.Program, crossoff.Options{}) {
		t.Fatalf("%s: program not deadlock-free under strict crossing-off", w.Name)
	}
	lab, err := label.Assign(w.Program, label.Options{})
	if err != nil {
		t.Fatalf("%s: labeling: %v", w.Name, err)
	}
	m, err := machine.Compile(w.Program, w.Topology, nil, lab.Dense)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(machine.ExecOptions{
		QueuesPerLink: w.DefaultQueues,
		Capacity:      w.DefaultCapacity,
		Policy:        assign.Compatible(),
		Logic:         w.Logic,
	})
	if err != nil {
		t.Fatalf("%s: sim: %v", w.Name, err)
	}
	if !res.Completed {
		t.Fatalf("%s: run %s: %s", w.Name, res.Outcome(), machine.DescribeBlocked(w.Program, res.Blocked))
	}
	return res
}

func checkResidents(t *testing.T, name string, logic machine.CellLogic, want []float64) {
	t.Helper()
	got := logic.(*exchangeLogic).Residents()
	if len(got) != len(want) {
		t.Fatalf("%s: %d residents, want %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("%s: resident[%d] = %g, want %g", name, i, got[i], want[i])
		}
	}
}

func TestAttentionEndToEnd(t *testing.T) {
	w, err := Attention(AttentionOptions{Tokens: 9, Experts: 3})
	if err != nil {
		t.Fatal(err)
	}
	res := runFamily(t, w)
	if err := w.CheckReceived(res.Received); err != nil {
		t.Fatal(err)
	}
}

func TestAttentionRejectsBadSizes(t *testing.T) {
	if _, err := Attention(AttentionOptions{Tokens: 0, Experts: 2}); err == nil {
		t.Error("Tokens=0 accepted")
	}
	if _, err := Attention(AttentionOptions{Tokens: 2, Experts: 0}); err == nil {
		t.Error("Experts=0 accepted")
	}
}

func TestStencilEndToEnd(t *testing.T) {
	const rows, cols, iters = 3, 4, 2
	w, err := Stencil(StencilOptions{Rows: rows, Cols: cols, Iters: iters})
	if err != nil {
		t.Fatal(err)
	}
	runFamily(t, w)

	// Sequential replay in construction order: horizontal pairs then
	// vertical pairs per iteration, both members keeping the average.
	want := make([]float64, rows*cols)
	for idx := range want {
		want[idx] = float64((idx*13+5)%97 + 1)
	}
	for k := 0; k < iters; k++ {
		for i := 0; i < rows; i++ {
			for j := 0; j+1 < cols; j++ {
				a, b := i*cols+j, i*cols+j+1
				avg := (want[a] + want[b]) / 2
				want[a], want[b] = avg, avg
			}
		}
		for i := 0; i+1 < rows; i++ {
			for j := 0; j < cols; j++ {
				a, b := i*cols+j, (i+1)*cols+j
				avg := (want[a] + want[b]) / 2
				want[a], want[b] = avg, avg
			}
		}
	}
	checkResidents(t, w.Name, w.Logic, want)
}

func TestFFTEndToEnd(t *testing.T) {
	const logN = 3
	w, err := FFT(FFTOptions{LogN: logN})
	if err != nil {
		t.Fatal(err)
	}
	runFamily(t, w)

	// Replay the butterfly stages directly: the network computes the
	// (unnormalized) Walsh–Hadamard transform of the initial residents.
	n := 1 << logN
	want := make([]float64, n)
	for idx := range want {
		want[idx] = float64((idx*7+3)%(2*n) + 1)
	}
	for s := 0; s < logN; s++ {
		stride := 1 << s
		for i := 0; i < n; i++ {
			if i&stride != 0 {
				continue
			}
			a, b := want[i], want[i+stride]
			want[i], want[i+stride] = a+b, a-b
		}
	}
	checkResidents(t, w.Name, w.Logic, want)
}

func TestPipelinedSortEndToEnd(t *testing.T) {
	const width = 9
	w, err := PipelinedSort(PipelinedSortOptions{Width: width, Rounds: width})
	if err != nil {
		t.Fatal(err)
	}
	runFamily(t, w)

	// Width rounds fully sort, so the residents must be the sorted
	// initial values.
	want := make([]float64, width)
	for idx := range want {
		want[idx] = float64((idx*7+3)%(2*width) + 1)
	}
	for r := 0; r < width; r++ {
		for i := r % 2; i+1 < width; i += 2 {
			if want[i] > want[i+1] {
				want[i], want[i+1] = want[i+1], want[i]
			}
		}
	}
	for i := 0; i+1 < width; i++ {
		if want[i] > want[i+1] {
			t.Fatalf("replay not sorted at %d — test bug", i)
		}
	}
	checkResidents(t, w.Name, w.Logic, want)
}

func TestPipelinedSortPartialRounds(t *testing.T) {
	// Fewer rounds than width: residents equal exactly that many
	// odd-even transposition rounds, not a full sort.
	const width, rounds = 8, 3
	w, err := PipelinedSort(PipelinedSortOptions{Width: width, Rounds: rounds})
	if err != nil {
		t.Fatal(err)
	}
	runFamily(t, w)
	want := make([]float64, width)
	for idx := range want {
		want[idx] = float64((idx*7+3)%(2*width) + 1)
	}
	for r := 0; r < rounds; r++ {
		for i := r % 2; i+1 < width; i += 2 {
			if want[i] > want[i+1] {
				want[i], want[i+1] = want[i+1], want[i]
			}
		}
	}
	checkResidents(t, w.Name, w.Logic, want)
}
