package workload

import (
	"fmt"

	"systolic/internal/machine"
	"systolic/internal/model"
	"systolic/internal/topology"
)

// MatVecOptions parameterizes the matrix–vector generator.
type MatVecOptions struct {
	// N is the matrix dimension (N×N) and the array length.
	N int
	// A and X are the operands; nil selects deterministic synthetic
	// values. A is row-major.
	A [][]float64
	X []float64
}

// MatVec generates a systolic y = A·x on a linear array Host, C1…CN:
// a stream of partial sums S0 (all zeros) enters C1; cell Cj holds x_j
// and column j of A and adds A[i][j]·x_j to the i-th passing partial
// sum; the completed results return to the host as message Y, routed
// across the whole array (a deliberately multi-hop message exercising
// queue-sequence assignment, §2.3/Fig 3).
func MatVec(opts MatVecOptions) (*Workload, error) {
	n := opts.N
	if n < 1 {
		return nil, fmt.Errorf("workload: MatVec needs N ≥ 1")
	}
	a := opts.A
	if a == nil {
		a = make([][]float64, n)
		for i := range a {
			a[i] = make([]float64, n)
			for j := range a[i] {
				a[i][j] = float64(i + 2*j + 1)
			}
		}
	}
	x := opts.X
	if x == nil {
		x = make([]float64, n)
		for j := range x {
			x[j] = float64(j + 1)
		}
	}
	if len(a) != n || len(x) != n {
		return nil, fmt.Errorf("workload: MatVec: operand sizes do not match N=%d", n)
	}
	for i := range a {
		if len(a[i]) != n {
			return nil, fmt.Errorf("workload: MatVec: row %d has %d entries, want %d", i, len(a[i]), n)
		}
	}

	b := model.NewBuilder()
	host := b.AddHost("Host")
	cells := b.AddCells("C", n)

	ss := make([]model.MessageID, n+1) // ss[j] feeds cell j+1; ss[0] from host
	for j := 0; j < n; j++ {
		from := host
		if j > 0 {
			from = cells[j-1]
		}
		ss[j] = b.DeclareMessage(fmt.Sprintf("S%d", j), from, cells[j], n)
	}
	y := b.DeclareMessage("Y", cells[n-1], host, n)

	b.WriteN(host, ss[0], n).ReadN(host, y, n)
	for j := 0; j < n; j++ {
		c := cells[j]
		out := y
		if j < n-1 {
			out = ss[j+1]
		}
		for i := 0; i < n; i++ {
			b.Read(c, ss[j])
			b.Write(c, out)
		}
	}
	p, err := b.Build()
	if err != nil {
		return nil, fmt.Errorf("workload: MatVec(%d): %w", n, err)
	}

	expected := make([]machine.Word, n)
	for i := 0; i < n; i++ {
		var s float64
		for j := 0; j < n; j++ {
			s += a[i][j] * x[j]
		}
		expected[i] = machine.Word(s)
	}

	logic := &matvecLogic{
		col:  make(map[model.MessageID]int),
		a:    a,
		x:    x,
		last: make([]float64, p.NumCells()),
	}
	for j := 0; j < n; j++ {
		out := y
		if j < n-1 {
			out = ss[j+1]
		}
		logic.col[out] = j // words of this message leave column j's cell
	}
	logic.source = ss[0]

	return &Workload{
		Name:            fmt.Sprintf("matvec(n=%d)", n),
		Program:         p,
		Topology:        topology.Linear(n + 1),
		Logic:           logic,
		Expected:        map[string][]machine.Word{"Y": expected},
		DefaultQueues:   2,
		DefaultCapacity: 2,
		Notes:           "partial-sum pipeline; Y returns to the host across n links",
	}, nil
}

type matvecLogic struct {
	col    map[model.MessageID]int // producing column per forwarded message
	source model.MessageID
	a      [][]float64
	x      []float64
	last   []float64 // last partial sum read, per cell
}

func (l *matvecLogic) OnRead(cell model.CellID, msg model.MessageID, index int, w machine.Word) {
	l.last[cell] = float64(w)
}

func (l *matvecLogic) Produce(cell model.CellID, msg model.MessageID, index int) machine.Word {
	if msg == l.source {
		return 0 // host seeds zero partial sums
	}
	j := l.col[msg]
	return machine.Word(l.last[cell] + l.a[index][j]*l.x[j])
}
