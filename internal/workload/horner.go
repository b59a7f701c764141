package workload

import (
	"fmt"

	"systolic/internal/machine"
	"systolic/internal/model"
	"systolic/internal/topology"
)

// HornerOptions parameterizes the polynomial-evaluation generator.
type HornerOptions struct {
	// Coefficients, leading first: p(x) = c_1·x^{k-1} + … + c_k.
	// nil selects deterministic synthetic values of length Degree+1.
	Coefficients []float64
	// Degree is the polynomial degree when Coefficients is nil.
	Degree int
	// Points are the evaluation points; nil selects Count points.
	Points []float64
	Count  int
}

// Horner generates systolic polynomial evaluation by Horner's rule on
// a linear array Host, C1…Ck (k coefficients, one per cell): the host
// streams evaluation points through the array while accumulator words
// flow alongside (acc ← acc·x + c_j per cell), and the finished values
// return to the host as a single multi-hop message against the data
// flow — forward and backward traffic sharing every link.
func Horner(opts HornerOptions) (*Workload, error) {
	coefs := opts.Coefficients
	if coefs == nil {
		if opts.Degree < 0 {
			return nil, fmt.Errorf("workload: Horner needs Coefficients or Degree ≥ 0")
		}
		coefs = make([]float64, opts.Degree+1)
		for i := range coefs {
			coefs[i] = float64(i%5 - 2) // …, -2..2 pattern, includes zeros
		}
		if coefs[0] == 0 {
			coefs[0] = 1
		}
	}
	points := opts.Points
	if points == nil {
		n := opts.Count
		if n <= 0 {
			n = 4
		}
		points = make([]float64, n)
		for i := range points {
			points[i] = float64(i) - 1.5
		}
	}
	k, m := len(coefs), len(points)
	if k < 1 || m < 1 {
		return nil, fmt.Errorf("workload: Horner needs ≥ 1 coefficient and ≥ 1 point")
	}

	b := model.NewBuilder()
	host := b.AddHost("Host")
	cells := b.AddCells("C", k)

	xs := make([]model.MessageID, k+1)
	accs := make([]model.MessageID, k+1)
	for j := 1; j <= k; j++ {
		from := host
		if j > 1 {
			from = cells[j-2]
		}
		xs[j] = b.DeclareMessage(fmt.Sprintf("X%d", j), from, cells[j-1], m)
		if j > 1 {
			accs[j] = b.DeclareMessage(fmt.Sprintf("A%d", j), cells[j-2], cells[j-1], m)
		}
	}
	y := b.DeclareMessage("Y", cells[k-1], host, m) // multi-hop back

	// The host primes the pipeline with two points and then drains a
	// result per further point (the Fig 2 interleave): writing every
	// point before reading any result would stall the return path
	// once the streams exceed the array's buffering.
	prime := 2
	if k < prime {
		prime = k // a single-cell array cannot overlap two iterations
	}
	if m < prime {
		prime = m
	}
	b.WriteN(host, xs[1], prime)
	for i := 1; i <= m; i++ {
		b.Read(host, y)
		if i+prime <= m {
			b.Write(host, xs[1])
		}
	}
	for j := 1; j <= k; j++ {
		c := cells[j-1]
		outAcc := y
		if j < k {
			outAcc = accs[j+1]
		}
		for i := 0; i < m; i++ {
			b.Read(c, xs[j])
			if j > 1 {
				b.Read(c, accs[j])
			}
			if j < k {
				b.Write(c, xs[j+1])
			}
			b.Write(c, outAcc)
		}
	}
	p, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("workload: Horner(k=%d,m=%d): %w", k, m, err)
	}

	expected := make([]machine.Word, m)
	for i, x := range points {
		acc := 0.0
		for _, c := range coefs {
			acc = acc*x + c
		}
		expected[i] = machine.Word(acc)
	}

	logic := &hornerLogic{
		points: points,
		coef:   make([]float64, p.NumCells()),
		kindOf: make(map[model.MessageID]byte),
		stage:  make(map[model.MessageID]int),
		lastX:  make([]float64, p.NumCells()),
		lastA:  make([]float64, p.NumCells()),
	}
	for j := 1; j <= k; j++ {
		logic.coef[cells[j-1]] = coefs[j-1]
		logic.kindOf[xs[j]] = 'x'
		logic.stage[xs[j]] = j
		if j > 1 {
			logic.kindOf[accs[j]] = 'a'
		}
	}
	logic.kindOf[y] = 'a'

	return &Workload{
		Name:     fmt.Sprintf("horner(k=%d,m=%d)", k, m),
		Program:  p,
		Topology: topology.Linear(k + 1),
		Logic:    logic,
		Expected: map[string][]machine.Word{"Y": expected},
		// Interior links carry X, A and the returning Y, and the
		// per-cell interleaving makes all three related (one label
		// class), so the simultaneous-assignment rule needs three
		// queues per link.
		DefaultQueues:   3,
		DefaultCapacity: 2,
		Notes: "Horner's rule pipeline; the result message Y crosses every " +
			"link against the forward streams",
	}, nil
}

type hornerLogic struct {
	points []float64
	coef   []float64
	kindOf map[model.MessageID]byte
	stage  map[model.MessageID]int
	lastX  []float64
	lastA  []float64
}

func (l *hornerLogic) OnRead(cell model.CellID, msg model.MessageID, index int, w machine.Word) {
	if l.kindOf[msg] == 'x' {
		l.lastX[cell] = float64(w)
		return
	}
	l.lastA[cell] = float64(w)
}

func (l *hornerLogic) Produce(cell model.CellID, msg model.MessageID, index int) machine.Word {
	if l.kindOf[msg] == 'x' {
		if l.stage[msg] == 1 { // host injects the raw points
			return machine.Word(l.points[index])
		}
		return machine.Word(l.lastX[cell])
	}
	// Accumulator out: acc·x + c; the first cell starts from zero.
	return machine.Word(l.lastA[cell]*l.lastX[cell] + l.coef[cell])
}
