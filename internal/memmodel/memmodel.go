// Package memmodel quantifies Fig 1's comparison between the systolic
// and the conventional memory-to-memory models of communication.
//
// Under the memory-to-memory model a cell program never touches its
// I/O queues directly: the operating system first copies an arriving
// word into local memory, the program reads it from memory, writes the
// result to memory, and the OS copies it back out — "a total of at
// least four local memory accesses … to update a data item flowing
// through the array" (§1). Under the systolic model the program
// operates on the queues directly: zero local-memory accesses for
// pass-through computations such as convolution.
//
// The paper gives no measured numbers, so this package provides both a
// closed-form pipeline model and a discrete simulation of the same
// pipeline; the two must agree exactly (see the tests), and the
// simulation provides the per-configuration rows that the Fig 1
// benchmark prints.
package memmodel

import "fmt"

// Model selects the communication style.
type Model int

const (
	// systolic reads and writes queues directly.
	systolic Model = iota
	// memToMem stages every word through cell local memory.
	memToMem
)

// String names the model.
func (m Model) String() string {
	if m == systolic {
		return "systolic"
	}
	return "mem-to-mem"
}

// Params describes one pipeline configuration: an array of Cells
// identical stages, each updating every one of Words data items, with
// the given per-access costs (in cycles).
type Params struct {
	Cells int // pipeline depth (k)
	Words int // words streamed through (n)
	// QueueAccess is the cost of touching an I/O queue (both models
	// pay it on entry and exit of a cell).
	QueueAccess int
	// MemAccess is the cost of one local-memory access; the
	// memory-to-memory model pays 4 of these per word per cell (§1).
	MemAccess int
	// Compute is the data operation itself.
	Compute int
}

// StageTime returns the per-word service time of one cell under the
// model.
func (p Params) StageTime(m Model) int {
	base := 2*p.QueueAccess + p.Compute
	if m == memToMem {
		return base + 4*p.MemAccess
	}
	return base
}

// Makespan returns the closed-form completion time of the homogeneous
// pipeline: (k + n - 1) stage times.
func (p Params) Makespan(m Model) int {
	if p.Cells <= 0 || p.Words <= 0 {
		return 0
	}
	return (p.Cells + p.Words - 1) * p.StageTime(m)
}

// Speedup returns the systolic/memory-to-memory throughput ratio,
// which is independent of k and n for the homogeneous pipeline.
func (p Params) Speedup() float64 {
	return float64(p.StageTime(memToMem)) / float64(p.StageTime(systolic))
}

// Simulate runs a discrete-event simulation of the pipeline and
// returns its completion cycle. Cells are store-and-forward with a
// one-word buffer per stage boundary; each stage busies itself
// StageTime cycles per word. It exists to validate Makespan (they must
// agree) and to keep the Fig 1 numbers honest rather than formulaic.
func (p Params) Simulate(m Model) int {
	if p.Cells <= 0 || p.Words <= 0 {
		return 0
	}
	st := p.StageTime(m)
	// finish[c] is the cycle at which stage c finishes its current
	// word; classic recurrence f[c][w] = max(f[c-1][w], f[c][w-1]) + st.
	finish := make([]int, p.Cells)
	for w := 0; w < p.Words; w++ {
		arrival := 0
		for c := 0; c < p.Cells; c++ {
			start := finish[c]
			if arrival > start {
				start = arrival
			}
			finish[c] = start + st
			arrival = finish[c]
		}
	}
	return finish[p.Cells-1]
}

// Row is one line of the Fig 1 comparison table.
type Row struct {
	Params   Params
	Systolic int
	MemToMem int
	Speedup  float64
}

// String renders the row.
func (r Row) String() string {
	return fmt.Sprintf("k=%-3d n=%-6d qa=%d ma=%d cp=%d  systolic=%-8d mem-to-mem=%-8d speedup=%.2fx",
		r.Params.Cells, r.Params.Words, r.Params.QueueAccess, r.Params.MemAccess, r.Params.Compute,
		r.Systolic, r.MemToMem, r.Speedup)
}

// Table evaluates a sweep of configurations, cross-checking the
// closed form against the simulation for each one.
func Table(configs []Params) ([]Row, error) {
	rows := make([]Row, 0, len(configs))
	for _, p := range configs {
		s, mm := p.Simulate(systolic), p.Simulate(memToMem)
		if s != p.Makespan(systolic) || mm != p.Makespan(memToMem) {
			return nil, fmt.Errorf("memmodel: simulation disagrees with closed form for %+v", p)
		}
		rows = append(rows, Row{Params: p, Systolic: s, MemToMem: mm, Speedup: p.Speedup()})
	}
	return rows, nil
}

// DefaultSweep is the parameter grid the Fig 1 experiment reports:
// filter-like pipelines of growing depth and stream length at unit
// queue cost, unit compute, and a memory access as expensive as a
// queue access (the paper's premise is that memory access is the
// bottleneck; equal cost is the conservative end).
func DefaultSweep() []Params {
	var out []Params
	for _, k := range []int{3, 8, 16} {
		for _, n := range []int{64, 1024, 16384} {
			out = append(out, Params{Cells: k, Words: n, QueueAccess: 1, MemAccess: 1, Compute: 1})
			out = append(out, Params{Cells: k, Words: n, QueueAccess: 1, MemAccess: 4, Compute: 1})
		}
	}
	return out
}
