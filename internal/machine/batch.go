package machine

// Batched execution: an execution context a caller holds across many
// configurations of one compiled machine, instead of borrowing one from
// the process-wide pool per run. Grid sweeps are the motivating caller —
// a (policy × queues × capacity) column re-runs the same machine dozens
// of times — and an Exec also keeps the buffers a Result aliases (the
// received arena, blocked counts, queue stats, the deadlock report),
// which Machine.Run must hand over fresh, so the steady-state cost of a
// grid point is the simulation itself.

// Exec is a reusable execution context for one Machine. Create it with
// Machine.NewExec, call Run once per configuration, and Release it when
// done.
//
// The scratch comes from the same process-wide pool Machine.Run
// borrows from: NewExec borrows an exec, Release gives it back, and a
// Run after Release borrows again. An Exec that is never released
// simply keeps its scratch until it becomes unreachable.
//
// The contract differs from Machine.Run in one way: the returned
// Result (including Received, Stats.BlockedCycles, Stats.Queues, and
// Blocked) aliases buffers the Exec holds and is valid only until the
// next Run or Release on the same Exec — after Release another run,
// on any machine, may reuse them. Callers that need a Result to outlive
// either must deep-copy what they keep. In exchange, a steady-state Run
// performs no per-run allocations beyond what the policy itself
// allocates.
//
// An Exec is NOT safe for concurrent use — it is one worker's
// private machine. Concurrent callers use Machine.Run, which is.
// Byte-for-byte, Exec.Run produces the same Result as Machine.Run
// for the same options: both drive the identical prepare/runExec
// path, and the sweep equivalence suite replays grids through both
// to enforce it.
type Exec struct {
	m   *Machine
	e   *exec // nil after Release
	out Result
}

// NewExec returns a batch execution context for m, holding an exec
// borrowed from the process-wide pool.
func (m *Machine) NewExec() *Exec {
	return &Exec{m: m, e: borrowExec(true)}
}

// Run simulates one configuration, exactly as Machine.Run would —
// same validation, same errors, same Result bytes — but against the
// Exec's held state. See the type comment for the Result lifetime
// contract.
func (ex *Exec) Run(opts ExecOptions) (*Result, error) {
	maxCycles, tbl, flavor, flt, lm, err := ex.m.prepare(&opts)
	if err != nil {
		return nil, err
	}
	if ex.e == nil {
		ex.e = borrowExec(true)
	}
	if err := ex.m.runExec(ex.e, &opts, tbl, flavor, maxCycles, flt, lm); err != nil {
		return nil, err
	}
	ex.out = ex.e.result()
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
