package server

// Admission control for the serving layer: a saturated daemon must
// shed load, not queue it. The shared sweep.Limiter already bounds how
// many simulations execute; this file bounds how many requests may
// *wait* for one. Beyond that small pool, requests are refused with
// 429 Too Many Requests and a Retry-After estimate derived from
// limiter occupancy, so clients back off instead of piling onto an
// unbounded Acquire queue that grows goroutines and tail latency
// without limit.

import (
	"context"
	"fmt"
	"net/http"
	"sync/atomic"

	"systolic/internal/sweep"
)

// testHookAcquired, when non-nil, runs on the /v1/run path after a
// limiter slot has been acquired and before the simulation executes.
// Tests use it to hold slots open (saturation coverage) and to inject
// panics (slot-leak regression coverage).
var testHookAcquired func()

// admission gates limiter acquisition behind a bounded wait pool.
type admission struct {
	limiter *sweep.Limiter
	// waitCap bounds concurrent waiters; 0 sheds immediately whenever
	// no slot is free.
	waitCap int

	waiting atomic.Int64 // requests currently waiting for a slot
	shed    atomic.Int64 // requests refused with 429
}

// newAdmission builds the gate. queueWait follows the Options
// contract: 0 means the default pool of 2× the limiter's capacity,
// -1 means no waiting at all, n > 0 means n waiters.
func newAdmission(l *sweep.Limiter, queueWait int) *admission {
	wc := queueWait
	switch {
	case wc == 0:
		wc = 2 * l.Cap()
	case wc < 0:
		wc = 0
	}
	return &admission{limiter: l, waitCap: wc}
}

// admit acquires one limiter slot for the caller. The fast path is a
// non-blocking try; otherwise the caller joins the bounded wait pool
// or — if the pool is full — is shed with a 429 statusError carrying
// a Retry-After estimate. A cancelled ctx while waiting maps to 503.
// On nil error the caller holds one slot and must Release it.
func (a *admission) admit(ctx context.Context) error {
	if a.limiter.TryAcquire() {
		return nil
	}
	if a.waiting.Add(1) > int64(a.waitCap) {
		a.waiting.Add(-1)
		a.shed.Add(1)
		return a.overloaded()
	}
	defer a.waiting.Add(-1)
	if err := a.limiter.Acquire(ctx); err != nil {
		return &statusError{code: http.StatusServiceUnavailable, err: fmt.Errorf("cancelled while waiting for a run slot: %w", err)}
	}
	return nil
}

// probe is request-level admission for endpoints whose engine acquires
// the limiter per unit of work (the sweep engine acquires per grid
// point): it admits like admit, then immediately returns the slot, so
// an overloaded daemon sheds whole sweeps up front while an admitted
// sweep's internal acquisition cannot deadlock against the slot the
// request itself would otherwise pin.
func (a *admission) probe(ctx context.Context) error {
	if err := a.admit(ctx); err != nil {
		return err
	}
	a.limiter.Release()
	return nil
}

// overloaded builds the 429 shed error.
func (a *admission) overloaded() error {
	retry := a.retryAfter()
	return &statusError{
		code:       http.StatusTooManyRequests,
		retryAfter: retry,
		err: fmt.Errorf("server saturated: %d/%d runs in flight, %d waiting; retry in %ds",
			a.limiter.InUse(), a.limiter.Cap(), a.waiting.Load(), retry),
	}
}

// retryAfter estimates whole seconds until a slot plausibly frees:
// the backlog (running + waiting) divided by capacity, floored at 1 —
// rough, monotone in load, and cheap. Every denominator and counter is
// guarded: an unbounded (nil) limiter has capacity 0, a -max-concurrency
// of 1 with an empty wait pool can shed while the last run releases
// (occupancy 0), and the waiting counter is read outside the shed
// path's own increment — none of those may ever produce a Retry-After
// of 0, which RFC 9110 clients read as "retry immediately" and turn
// into a busy loop against a saturated daemon.
func (a *admission) retryAfter() int {
	c := a.limiter.Cap()
	if c <= 0 {
		// Unset/unbounded capacity: no occupancy math is meaningful,
		// but the shed still needs a positive hint.
		return 1
	}
	backlog := a.limiter.InUse()
	if w := int(a.waiting.Load()); w > 0 {
		backlog += w
	}
	retry := (backlog + c - 1) / c
	if retry < 1 {
		retry = 1
	}
	return retry
}
