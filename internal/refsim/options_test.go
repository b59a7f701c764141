package refsim

import (
	"errors"
	"math"
	"testing"

	"systolic/internal/machine"
	"systolic/internal/model"
	"systolic/internal/topology"
)

// TestEnginesShareOptionChecks: both engines check a run's options
// with machine.CheckOptions, so a refused configuration is the same
// ConfigError, text and all, from either. The rows include the two
// checks the reference engine once lacked — a capacity plus extension
// that overflows int, and more queues than a run may hold (2²⁰ slots
// over all pools) — and the latch check, whose multi-hop message the
// reference engine finds in its own routes.
func TestEnginesShareOptionChecks(t *testing.T) {
	b := model.NewBuilder()
	cs := b.AddCells("C", 3)
	m := b.DeclareMessage("M", cs[0], cs[2], 2)
	b.WriteN(cs[0], m, 2).ReadN(cs[2], m, 2)
	p, topo := b.MustBuild(), topology.Linear(3)

	overflow := fcfs(1, math.MaxInt)
	overflow.ExtCapacity = 1
	for name, cfg := range map[string]machine.ExecOptions{
		"capacity plus extension overflows": overflow,
		"queues overflow the slot count":    fcfs(math.MaxInt/2+1, 1),
		"queues over the bound":             fcfs(1<<19+1, 1), // 2 links
		"latch on a two-hop route":          fcfs(1, 0),
		"nil policy":                        {QueuesPerLink: 1, Capacity: 1},
	} {
		ref, refErr := Run(p, topo, nil, nil, cfg)
		got, gotErr := machineRun(p, topo, nil, nil, cfg)
		var refCE, gotCE *machine.ConfigError
		if !errors.As(refErr, &refCE) || !errors.As(gotErr, &gotCE) {
			t.Errorf("%s: reference (%v, %v), machine (%v, %v); want a ConfigError from both", name, ref != nil, refErr, got != nil, gotErr)
			continue
		}
		if refErr.Error() != gotErr.Error() {
			t.Errorf("%s: error text diverged:\n  reference: %v\n  machine:   %v", name, refErr, gotErr)
		}
	}
}
