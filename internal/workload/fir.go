package workload

import (
	"fmt"

	"systolic/internal/machine"
	"systolic/internal/model"
	"systolic/internal/topology"
)

// FIROptions parameterizes the FIR generator.
type FIROptions struct {
	// Taps is the filter length k ≥ 1; Outputs is the number of
	// results n ≥ 1. The host supplies n+k-1 input words.
	Taps, Outputs int
	// Weights has length Taps; Inputs has length Outputs+Taps-1. Both
	// may be nil for deterministic synthetic values.
	Weights []float64
	Inputs  []float64
	// PaperNames uses the Fig 2 names (XA, XB, …, YA, …) instead of
	// X1…/Y1…; only valid for Taps ≤ 26.
	PaperNames bool
}

// FIR generates the systolic FIR filter program of Fig 2, generalized
// to k taps and n outputs. With Taps=3, Outputs=2 and PaperNames it
// reproduces the paper's program verbatim.
//
// Structure (cells Host, C1…Ck on a linear array, weight w_{k+1-j}
// resident in cell Cj):
//
//   - X_j (into cell j) carries inputs x_1…x_{n+k-j}; X_1 comes from
//     the host.
//   - Y_j (out of cell j toward the host) carries the n partial
//     results; Y_1 reaches the host with the final values
//     y_i = Σ_t w_t·x_{i+t-1}.
func FIR(opts FIROptions) (*Workload, error) {
	k, n := opts.Taps, opts.Outputs
	if k < 1 || n < 1 {
		return nil, fmt.Errorf("workload: FIR needs Taps ≥ 1 and Outputs ≥ 1 (got %d, %d)", k, n)
	}
	if opts.PaperNames && k > 26 {
		return nil, fmt.Errorf("workload: paper names support at most 26 taps")
	}
	weights := opts.Weights
	if weights == nil {
		weights = make([]float64, k)
		for i := range weights {
			weights[i] = float64(i + 1) // w_1=1, w_2=2, …
		}
	}
	if len(weights) != k {
		return nil, fmt.Errorf("workload: FIR: %d weights for %d taps", len(weights), k)
	}
	inputs := opts.Inputs
	if inputs == nil {
		inputs = make([]float64, n+k-1)
		for i := range inputs {
			inputs[i] = float64(10 + i) // x_1=10, x_2=11, …
		}
	}
	if len(inputs) != n+k-1 {
		return nil, fmt.Errorf("workload: FIR: %d inputs, need n+k-1 = %d", len(inputs), n+k-1)
	}

	nameX := func(j int) string { // message into cell j (1-based)
		if opts.PaperNames {
			return fmt.Sprintf("X%c", 'A'+j-1)
		}
		return fmt.Sprintf("X%d", j)
	}
	nameY := func(j int) string { // message out of cell j toward host
		if opts.PaperNames {
			return fmt.Sprintf("Y%c", 'A'+j-1)
		}
		return fmt.Sprintf("Y%d", j)
	}

	b := model.NewBuilder()
	host := b.AddHost("Host")
	cells := b.AddCells("C", k)

	xs := make([]model.MessageID, k+1) // xs[j] = X_j, 1-based
	ys := make([]model.MessageID, k+1)
	for j := 1; j <= k; j++ {
		from := host
		if j > 1 {
			from = cells[j-2]
		}
		xs[j] = b.DeclareMessage(nameX(j), from, cells[j-1], n+k-j)
		to := host
		if j > 1 {
			to = cells[j-2]
		}
		ys[j] = b.DeclareMessage(nameY(j), cells[j-1], to, n)
	}

	// Host: prime the pipeline with k inputs, then alternate reading a
	// result and (while any remain) writing the next input.
	b.WriteN(host, xs[1], k)
	for i := 1; i <= n; i++ {
		b.Read(host, ys[1])
		if k+i <= n+k-1 {
			b.Write(host, xs[1])
		}
	}
	// Cell j: pass k-j inputs through, then per output read an input
	// and the inner partial sum, forward the input if the next stage
	// still needs it, and emit the updated partial sum.
	for j := 1; j <= k; j++ {
		c := cells[j-1]
		for d := 1; d <= k-j; d++ {
			b.Read(c, xs[j])
			b.Write(c, xs[j+1])
		}
		for i := 1; i <= n; i++ {
			b.Read(c, xs[j])
			if j < k {
				b.Read(c, ys[j+1])
			}
			if j < k && i+k-j <= n+k-j-1 {
				b.Write(c, xs[j+1])
			}
			b.Write(c, ys[j])
		}
	}
	p, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("workload: FIR(%d,%d): %w", k, n, err)
	}

	expected := make([]machine.Word, n)
	for i := 0; i < n; i++ {
		var y float64
		for t := 0; t < k; t++ {
			y += weights[t] * inputs[i+t]
		}
		expected[i] = machine.Word(y)
	}

	logic := &firLogic{
		k:      k,
		host:   host,
		stageX: make(map[model.MessageID]int),
		stageY: make(map[model.MessageID]int),
		weight: make([]float64, p.NumCells()),
		lastX:  make([]float64, p.NumCells()),
		lastY:  make([]float64, p.NumCells()),
		inputs: inputs,
	}
	for j := 1; j <= k; j++ {
		logic.stageX[xs[j]] = j
		logic.stageY[ys[j]] = j
		logic.weight[cells[j-1]] = weights[k-j] // cell j holds w_{k+1-j}
	}

	return &Workload{
		Name:            fmt.Sprintf("fir(k=%d,n=%d)", k, n),
		Program:         p,
		Topology:        topology.Linear(k + 1),
		Logic:           logic,
		Expected:        map[string][]machine.Word{nameY(1): expected},
		DefaultQueues:   2,
		DefaultCapacity: 2,
		Notes: "Fig 2 generalized; Taps=3, Outputs=2 with PaperNames " +
			"reproduces the figure's program exactly.",
	}, nil
}

// Fig2 returns the exact program of Fig 2: a 3-tap FIR filter
// computing its first two outputs, with the paper's message names.
func Fig2() *Workload {
	w, err := FIR(FIROptions{
		Taps: 3, Outputs: 2,
		Weights:    []float64{2, 3, 5}, // w1, w2, w3 (values are free in the paper)
		Inputs:     []float64{1, 4, 9, 16},
		PaperNames: true,
	})
	if err != nil {
		panic(err) // static parameters; cannot fail
	}
	w.Name = "fig2-fir"
	return w
}

// firLogic implements the filter arithmetic: each cell keeps the last
// input word and the last inner partial sum it read; outgoing X words
// pass through, outgoing Y words accumulate weight·x.
type firLogic struct {
	k      int
	host   model.CellID
	stageX map[model.MessageID]int
	stageY map[model.MessageID]int
	weight []float64
	lastX  []float64
	lastY  []float64
	inputs []float64
}

func (l *firLogic) OnRead(cell model.CellID, msg model.MessageID, index int, w machine.Word) {
	if _, isX := l.stageX[msg]; isX {
		l.lastX[cell] = float64(w)
		return
	}
	l.lastY[cell] = float64(w)
}

func (l *firLogic) Produce(cell model.CellID, msg model.MessageID, index int) machine.Word {
	if j, isX := l.stageX[msg]; isX {
		if j == 1 { // host injects the raw input stream
			return machine.Word(l.inputs[index])
		}
		return machine.Word(l.lastX[cell]) // pass-through
	}
	j := l.stageY[msg]
	if j == l.k { // deepest cell starts the accumulation
		return machine.Word(l.weight[cell] * l.lastX[cell])
	}
	return machine.Word(l.lastY[cell] + l.weight[cell]*l.lastX[cell])
}
