package gen

// Random fault plans for the differential oracle: like Generate, a
// plan is reproducible from (seed, counts, options) alone through one
// rand stream, so a failing faulted scenario replays exactly.

import (
	"math/rand"

	"systolic/internal/fault"
	"systolic/internal/model"
	"systolic/internal/topology"
)

// FaultOptions are the RandomFaults knobs.
type FaultOptions struct {
	// SlowdownsOnly restricts the plan to slowdowns (no dead cells, no
	// severed links), the classes whose completion guarantee survives
	// — the right setting for the degraded-completion invariant.
	SlowdownsOnly bool
	// MaxFaults bounds the number of faults in the plan (≥ 1).
	// 0 means 2.
	MaxFaults int
}

// RandomFaults derives a valid fault plan for an array with the given
// cell and link counts. The plan always contains at least one
// effective fault, never duplicates a cell or link, and validates
// against the same counts it was drawn for. numLinks may be 0 (the
// plan then holds only cell faults).
func RandomFaults(seed int64, numCells, numLinks int, opts FaultOptions) *fault.Plan {
	rng := rand.New(rand.NewSource(seed))
	if opts.MaxFaults == 0 {
		opts.MaxFaults = 2
	}
	n := 1 + rng.Intn(opts.MaxFaults)
	plan := &fault.Plan{}
	usedCell := map[int]bool{}
	usedLink := map[int]bool{}
	for i := 0; i < n; i++ {
		terminal := !opts.SlowdownsOnly && rng.Intn(4) == 0
		factor := 2 + rng.Intn(3)
		from := 0
		if rng.Intn(2) == 0 {
			from = rng.Intn(9)
		}
		pickLink := numLinks > 0 && rng.Intn(2) == 0
		if pickLink && len(usedLink) < numLinks {
			l := rng.Intn(numLinks)
			for usedLink[l] {
				l = (l + 1) % numLinks
			}
			usedLink[l] = true
			lf := fault.LinkFault{Link: topology.LinkID(l), Factor: factor, From: from}
			if terminal {
				lf.Severed, lf.Factor = true, 0
			}
			plan.Links = append(plan.Links, lf)
			continue
		}
		if len(usedCell) >= numCells {
			break
		}
		c := rng.Intn(numCells)
		for usedCell[c] {
			c = (c + 1) % numCells
		}
		usedCell[c] = true
		cf := fault.CellFault{Cell: model.CellID(c), Factor: factor, From: from}
		if terminal {
			cf.Dead, cf.Factor = true, 0
		}
		plan.Cells = append(plan.Cells, cf)
	}
	return plan
}
