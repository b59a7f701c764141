// Package workload provides the programs the paper's figures use —
// reconstructed exactly where the text fully constrains them — plus
// generalized systolic algorithm generators (FIR filtering,
// matrix–vector and matrix–matrix multiplication, odd-even
// transposition sort) with complete word-level semantics, so simulated
// runs can be checked against direct computation.
package workload

import (
	"fmt"

	"systolic/internal/machine"
	"systolic/internal/model"
	"systolic/internal/topology"
)

// Workload bundles a program with everything needed to run and verify
// it.
type Workload struct {
	// Name identifies the workload in reports.
	Name string
	// Program is the validated systolic program.
	Program *model.Program
	// Topology connects the program's cells.
	Topology topology.Topology
	// Logic supplies word values; nil means synthetic transport-only
	// values.
	Logic machine.CellLogic
	// Expected maps message names to the words their receivers must
	// observe (empty for workloads verified another way).
	Expected map[string][]machine.Word
	// DefaultQueues and DefaultCapacity are sensible run parameters
	// (enough for the avoidance strategy to apply).
	DefaultQueues   int
	DefaultCapacity int
	// Notes documents reconstruction decisions relative to the paper.
	Notes string
}

// CheckReceived compares a simulation's received words against
// Expected, returning a descriptive error on the first mismatch.
func (w *Workload) CheckReceived(received [][]machine.Word) error {
	for name, want := range w.Expected {
		m, ok := w.Program.MessageByName(name)
		if !ok {
			return fmt.Errorf("workload %s: expected message %q not declared", w.Name, name)
		}
		got := received[m.ID]
		if len(got) != len(want) {
			return fmt.Errorf("workload %s: message %s: received %d words, want %d", w.Name, name, len(got), len(want))
		}
		for i := range want {
			if !closeEnough(float64(got[i]), float64(want[i])) {
				return fmt.Errorf("workload %s: message %s word %d: got %v, want %v", w.Name, name, i, got[i], want[i])
			}
		}
	}
	return nil
}

func closeEnough(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	scale := 1.0
	if b > 1 || b < -1 {
		if b < 0 {
			scale = -b
		} else {
			scale = b
		}
	}
	return d <= 1e-9*scale
}
