package machine

import (
	"context"
	"fmt"

	"systolic/internal/assign"
)

// Exec is a reusable execution context for one Machine: a caller that
// runs the same compiled machine many times — a sweep re-runs it for
// every (policy × queues × capacity) point of a grid column — holds one
// instead of borrowing from the process-wide pool per run. Create it
// with Machine.NewExec, call Run once per configuration, and Release it
// when done. NewExec borrows an exec from the pool Machine.Run borrows
// from, Release gives it back, and a Run after Release borrows again;
// an Exec that is never released keeps its scratch until it becomes
// unreachable.
//
// The returned Result (including Received, Stats.BlockedCycles,
// Stats.Queues, Blocked and Faults) aliases buffers the Exec holds and
// is valid only until the next Run or Release on the same Exec — after
// Release another run, on any machine, may reuse them. Callers that
// need a Result to outlive either must deep-copy what they keep. In
// exchange, a steady-state Run performs no per-run allocations beyond
// what the policy itself allocates.
//
// An Exec is NOT safe for concurrent use — it is one worker's private
// machine. Machine.Run, which is, is a one-run Exec whose exec hands
// its buffers to the Result before going back to the pool, so Exec.Run
// gives the same Result as Machine.Run for the same options by
// construction.
type Exec struct {
	m   *Machine
	e   *exec // nil after Release
	out Result
}

// NewExec returns a batch execution context for m, holding an exec
// borrowed from the process-wide pool.
func (m *Machine) NewExec() *Exec {
	return &Exec{m: m, e: borrowExec()}
}

// Run simulates one configuration against the Exec's held state:
// prepare checks the options, init sizes the exec for the machine and
// lowers the run's plans into it, the policy is set up, and the
// scheduler loop runs. See the type comment for the Result lifetime
// contract.
func (ex *Exec) Run(opts ExecOptions) (*Result, error) {
	m := ex.m
	maxCycles, err := m.prepare(&opts)
	if err != nil {
		return nil, err
	}
	if ex.e == nil {
		ex.e = borrowExec()
	}
	e := ex.e
	e.init(m, &opts)
	e.ctx = assign.Context{
		CompetingByPool: m.pools.competingByPool,
		LabelOrder:      m.pools.labelOrder,
		Labels:          m.labels,
		QueuesPerLink:   opts.QueuesPerLink,
	}
	if err := opts.Policy.Setup(&e.ctx); err != nil {
		return nil, err
	}
	e.run(maxCycles)
	if e.cancelled {
		return nil, fmt.Errorf("machine: run cancelled after %d cycles: %w", e.now, context.Cause(opts.Context))
	}
	ex.out = e.result()
	return &ex.out, nil
}

// Release gives the Exec's scratch back to the process-wide pool. The
// last Result is invalid from here on; the Exec stays usable, and its
// next Run borrows again. Releasing twice is harmless.
func (ex *Exec) Release() {
	if ex.e == nil {
		return
	}
	returnExec(ex.e)
	ex.e = nil
	ex.out = Result{}
}
