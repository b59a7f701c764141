package machine

// Batched execution: a caller-owned execution context that runs many
// configurations back-to-back against one compiled machine without
// round-tripping scratch state through the machine's sync.Pool per
// run. Grid sweeps are the motivating caller — a (policy × queues ×
// capacity) column re-runs the same machine dozens of times, and
// under GC pressure the pool's eviction turns "pooled" into "fresh
// allocation per grid point". An Exec pins one exec's arenas, queue
// tables, ready sets, and result buffers for the column's lifetime,
// so the steady-state cost of a grid point is the simulation itself.

// Exec is a dedicated, reusable execution context for one Machine.
// Create it with Machine.NewExec; call Run once per configuration.
//
// The contract differs from Machine.Run in exactly one way: the
// returned Result (including Received, Stats.BlockedCycles,
// Stats.Queues, and Blocked) aliases buffers owned by the Exec and is
// valid only until the next Run call on the same Exec. Callers that
// need a Result to outlive the next run must deep-copy what they
// keep. In exchange, a steady-state Run performs no per-run
// allocations beyond what the policy itself allocates.
//
// An Exec is NOT safe for concurrent use — it is one worker's
// private machine. Concurrent callers use Machine.Run, which is.
// Byte-for-byte, Exec.Run produces the same Result as Machine.Run
// for the same options: both drive the identical prepare/runExec
// path, and the sweep equivalence suite replays grids through both
// to enforce it.
type Exec struct {
	m   *Machine
	e   *exec
	out Result
}

// NewExec returns a fresh batch execution context for m. The context
// retains its scratch (sized on first use, grown as configurations
// demand) until it becomes unreachable; for one-off runs prefer
// Machine.Run, whose pooled scratch is shared process-wide.
func (m *Machine) NewExec() *Exec {
	return &Exec{m: m, e: &exec{reuse: true}}
}

// Run simulates one configuration, exactly as Machine.Run would —
// same validation, same errors, same Result bytes — but against the
// Exec's retained state. See the type comment for the Result
// lifetime contract.
func (ex *Exec) Run(opts ExecOptions) (*Result, error) {
	maxCycles, tbl, flavor, flt, lm, err := ex.m.prepare(&opts)
	if err != nil {
		return nil, err
	}
	if err := ex.m.runExec(ex.e, &opts, tbl, flavor, maxCycles, flt, lm); err != nil {
		return nil, err
	}
	ex.out = ex.e.result()
	return &ex.out, nil
}
