package topology

import (
	"fmt"

	"systolic/internal/model"
)

// Torus2D returns a rows×cols 2-D torus (mesh plus wraparound links)
// with dimension-ordered routing that takes the shorter way around
// each dimension, ties broken toward increasing coordinates.
func Torus2D(rows, cols int) Topology {
	// Each cell links to its successor along each dimension of size at
	// least 2, except that along a dimension of size 2 the successor's
	// link back is the same one.
	across, down := torusLinks(cols), torusLinks(rows)
	g := newGraph(fmt.Sprintf("torus(%dx%d)", rows, cols), rows*cols, rows*across+cols*down)
	id := func(r, c int) model.CellID { return model.CellID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c < across {
				g.addLink(id(r, c), id(r, (c+1)%cols))
			}
			if r < down {
				g.addLink(id(r, c), id((r+1)%rows, c))
			}
		}
	}
	step := func(cur, want, size int) int {
		if cur == want {
			return cur
		}
		fwd := (want - cur + size) % size
		bwd := size - fwd
		if fwd <= bwd {
			return (cur + 1) % size
		}
		return (cur - 1 + size) % size
	}
	return g.seal(stateless(func(path []model.CellID, from, to model.CellID) ([]model.CellID, error) {
		r, c := int(from)/cols, int(from)%cols
		tr, tc := int(to)/cols, int(to)%cols
		for c != tc { // X dimension first
			c = step(c, tc, cols)
			path = append(path, id(r, c))
		}
		for r != tr { // then Y
			r = step(r, tr, rows)
			path = append(path, id(r, c))
		}
		return path, nil
	}))
}

// torusLinks is the number of links a torus dimension of the given size
// adds per line of cells: one per cell, one in all for a pair, none
// for a single cell.
func torusLinks(size int) int {
	if size == 2 {
		return 1
	}
	if size < 2 {
		return 0
	}
	return size
}

// Hypercube returns a 2^dim-cell hypercube with e-cube (dimension
// ordered, lowest differing bit first) routing — the topology of the
// Cosmic Cube machines the paper contrasts with (§1, refs 6 and 11).
func Hypercube(dim int) Topology {
	n := 1 << dim
	g := newGraph(fmt.Sprintf("hypercube(%d)", dim), n, n*dim/2)
	for c := 0; c < n; c++ {
		for d := 0; d < dim; d++ {
			// The lower endpoint, visited first, adds the link.
			if c&(1<<d) == 0 {
				g.addLink(model.CellID(c), model.CellID(c^(1<<d)))
			}
		}
	}
	return g.seal(stateless(func(path []model.CellID, from, to model.CellID) ([]model.CellID, error) {
		cur := int(from)
		for cur != int(to) {
			diff := cur ^ int(to)
			bit := diff & -diff // lowest set bit
			cur ^= bit
			path = append(path, model.CellID(cur))
		}
		return path, nil
	}))
}

// Star returns a hub-and-spoke topology: cell 0 is the hub, cells
// 1..n-1 are leaves; leaf-to-leaf routes pass through the hub.
func Star(n int) Topology {
	g := newGraph(fmt.Sprintf("star(%d)", n), n, n-1)
	for c := 1; c < n; c++ {
		g.addLink(0, model.CellID(c))
	}
	return g.seal(stateless(func(path []model.CellID, from, to model.CellID) ([]model.CellID, error) {
		if from != 0 && to != 0 {
			path = append(path, 0)
		}
		return append(path, to), nil
	}))
}
