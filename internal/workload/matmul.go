package workload

import (
	"fmt"

	"systolic/internal/machine"
	"systolic/internal/model"
	"systolic/internal/topology"
)

// MatMulOptions parameterizes the 2-D mesh matrix-multiply generator.
type MatMulOptions struct {
	// Rows×Inner times Inner×Cols = Rows×Cols on a Rows×Cols mesh.
	Rows, Inner, Cols int
	// A (Rows×Inner) and B (Inner×Cols); nil selects deterministic
	// synthetic values.
	A, B [][]float64
}

// MatMul generates C = A·B on a Rows×Cols mesh, the paper's promised
// extension to higher-dimensional arrays (§2.1). Row streams of A flow
// east (cells in column 0 inject them), column streams of B flow south
// (row 0 injects), every cell accumulates its c_ij, and each row's
// results converge on the row's easternmost cell as per-cell messages
// — multi-hop, mutually competing traffic that genuinely needs the
// labeling machinery.
func MatMul(opts MatMulOptions) (*Workload, error) {
	rows, inner, cols := opts.Rows, opts.Inner, opts.Cols
	if rows < 1 || inner < 1 || cols < 2 {
		return nil, fmt.Errorf("workload: MatMul needs Rows ≥ 1, Inner ≥ 1, Cols ≥ 2")
	}
	a := opts.A
	if a == nil {
		a = synthMatrix(rows, inner, 1)
	}
	bm := opts.B
	if bm == nil {
		bm = synthMatrix(inner, cols, 2)
	}
	if len(a) != rows || len(bm) != inner {
		return nil, fmt.Errorf("workload: MatMul: operand shapes do not match")
	}

	bld := model.NewBuilder()
	mesh := topology.Mesh2D(rows, cols)
	cellAt := func(r, c int) model.CellID { return model.CellID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			bld.AddCell(fmt.Sprintf("P%d.%d", r, c))
		}
	}

	// aMsg[r][c] feeds cell (r,c) from (r,c-1); bMsg[r][c] feeds (r,c)
	// from (r-1,c); cMsg[r][c] carries c_{rc} to the row collector.
	aMsg := make([][]model.MessageID, rows)
	bMsg := make([][]model.MessageID, rows)
	cMsg := make([][]model.MessageID, rows)
	for r := 0; r < rows; r++ {
		aMsg[r] = make([]model.MessageID, cols)
		bMsg[r] = make([]model.MessageID, cols)
		cMsg[r] = make([]model.MessageID, cols)
		for c := 0; c < cols; c++ {
			if c > 0 {
				aMsg[r][c] = bld.DeclareMessage(fmt.Sprintf("A%d.%d", r, c), cellAt(r, c-1), cellAt(r, c), inner)
			}
			if r > 0 {
				bMsg[r][c] = bld.DeclareMessage(fmt.Sprintf("B%d.%d", r, c), cellAt(r-1, c), cellAt(r, c), inner)
			}
			if c < cols-1 {
				cMsg[r][c] = bld.DeclareMessage(fmt.Sprintf("C%d.%d", r, c), cellAt(r, c), cellAt(r, cols-1), 1)
			}
		}
	}

	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			cell := cellAt(r, c)
			for k := 0; k < inner; k++ {
				if c > 0 {
					bld.Read(cell, aMsg[r][c])
				}
				if r > 0 {
					bld.Read(cell, bMsg[r][c])
				}
				if c < cols-1 {
					bld.Write(cell, aMsg[r][c+1])
				}
				if r < rows-1 {
					bld.Write(cell, bMsg[r+1][c])
				}
			}
			if c < cols-1 {
				bld.Write(cell, cMsg[r][c])
			} else {
				for cc := 0; cc < cols-1; cc++ {
					bld.Read(cell, cMsg[r][cc])
				}
			}
		}
	}
	p, err := bld.Build()
	if err != nil {
		return nil, fmt.Errorf("workload: MatMul(%dx%dx%d): %w", rows, inner, cols, err)
	}

	// Expected: collector of row r reads C[r][0..cols-2] in order.
	expected := make(map[string][]machine.Word)
	prod := func(r, c int) float64 {
		var s float64
		for k := 0; k < inner; k++ {
			s += a[r][k] * bm[k][c]
		}
		return s
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols-1; c++ {
			expected[fmt.Sprintf("C%d.%d", r, c)] = []machine.Word{machine.Word(prod(r, c))}
		}
	}

	logic := &matmulLogic{
		cols: cols, inner: inner,
		a: a, b: bm,
		kindOf: make(map[model.MessageID]rune),
		aReg:   make([]float64, p.NumCells()),
		bReg:   make([]float64, p.NumCells()),
		acc:    make([]float64, p.NumCells()),
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c > 0 {
				logic.kindOf[aMsg[r][c]] = 'a'
			}
			if r > 0 {
				logic.kindOf[bMsg[r][c]] = 'b'
			}
			if c < cols-1 {
				logic.kindOf[cMsg[r][c]] = 'c'
			}
		}
	}
	// Top-left corner cells never read, so their accumulators are
	// computed directly.
	logic.acc[cellAt(0, 0)] = prod(0, 0)

	w := &Workload{
		Name:            fmt.Sprintf("matmul(%dx%dx%d)", rows, inner, cols),
		Program:         p,
		Topology:        mesh,
		Logic:           logic,
		Expected:        expected,
		DefaultQueues:   4,
		DefaultCapacity: 2,
		Notes:           "wavefront A east / B south; per-row result collection east",
	}
	return w, nil
}

func synthMatrix(r, c int, salt int) [][]float64 {
	m := make([][]float64, r)
	for i := range m {
		m[i] = make([]float64, c)
		for j := range m[i] {
			m[i][j] = float64((i+1)*(j+salt) + salt)
		}
	}
	return m
}

type matmulLogic struct {
	cols, inner int
	a, b        [][]float64
	kindOf      map[model.MessageID]rune
	aReg, bReg  []float64
	acc         []float64
}

func (l *matmulLogic) pos(cell model.CellID) (int, int) {
	return int(cell) / l.cols, int(cell) % l.cols
}

func (l *matmulLogic) OnRead(cell model.CellID, msg model.MessageID, index int, w machine.Word) {
	r, c := l.pos(cell)
	switch l.kindOf[msg] {
	case 'a':
		l.aReg[cell] = float64(w)
		if r == 0 { // top-row cells see no B stream: accumulate here
			l.acc[cell] += float64(w) * l.b[index][c]
		}
	case 'b':
		l.bReg[cell] = float64(w)
		av := l.aReg[cell]
		if c == 0 { // left-column cells inject A themselves
			av = l.a[r][index]
		}
		l.acc[cell] += av * float64(w)
	case 'c':
		// collector bookkeeping only; values checked via Expected
	}
}

func (l *matmulLogic) Produce(cell model.CellID, msg model.MessageID, index int) machine.Word {
	r, c := l.pos(cell)
	switch l.kindOf[msg] {
	case 'a':
		if c == 0 {
			return machine.Word(l.a[r][index])
		}
		return machine.Word(l.aReg[cell])
	case 'b':
		if r == 0 {
			return machine.Word(l.b[index][c])
		}
		return machine.Word(l.bReg[cell])
	default:
		return machine.Word(l.acc[cell])
	}
}
