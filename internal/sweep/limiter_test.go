package sweep

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestLimiterBoundsConcurrency(t *testing.T) {
	const bound = 3
	l := NewLimiter(bound)
	if l.Cap() != bound {
		t.Fatalf("Cap = %d, want %d", l.Cap(), bound)
	}
	var cur, peak atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := l.Acquire(context.Background()); err != nil {
				t.Errorf("Acquire: %v", err)
				return
			}
			n := cur.Add(1)
			for {
				p := peak.Load()
				if n <= p || peak.CompareAndSwap(p, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
			l.Release()
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > bound {
		t.Fatalf("observed %d concurrent holders, bound is %d", p, bound)
	}
	if l.InUse() != 0 {
		t.Fatalf("InUse = %d after all released", l.InUse())
	}
}

func TestLimiterAcquireHonoursContext(t *testing.T) {
	l := NewLimiter(1)
	if err := l.Acquire(context.Background()); err != nil {
		t.Fatalf("first Acquire: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := l.Acquire(ctx); err == nil {
		t.Fatal("Acquire succeeded on a cancelled context with no free slot")
	}
	l.Release()
}

func TestNilLimiterIsUnbounded(t *testing.T) {
	var l *Limiter
	if err := l.Acquire(context.Background()); err != nil {
		t.Fatalf("nil Acquire: %v", err)
	}
	l.Release()
	if l.InUse() != 0 || l.Cap() != 0 {
		t.Fatal("nil limiter reports non-zero usage")
	}
}

// TestTryAcquire pins the admission fast path's contract: never
// blocks, takes a slot only when one is free, pairs with Release, and a
// nil limiter always admits.
func TestTryAcquire(t *testing.T) {
	l := NewLimiter(2)
	if err := l.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !l.TryAcquire() || l.InUse() != 2 {
		t.Fatalf("TryAcquire with one slot free: in use %d, want 2", l.InUse())
	}
	if l.TryAcquire() {
		t.Fatal("TryAcquire succeeded on a saturated limiter")
	}
	l.Release()
	l.Release()
	if l.InUse() != 0 {
		t.Fatalf("InUse = %d after releasing everything", l.InUse())
	}
	var nilL *Limiter
	if !nilL.TryAcquire() {
		t.Fatal("nil TryAcquire refused")
	}
	nilL.Release()
}

// TestSweepSharesLimiter runs a sweep through a width-1 limiter and
// checks the report is complete and identical to an unlimited run.
func TestSweepSharesLimiter(t *testing.T) {
	cases := testCases()
	axes := Axes{Seed: 1}
	free, err := Run(context.Background(), cases, axes, Options{Workers: 4})
	if err != nil {
		t.Fatalf("unlimited run: %v", err)
	}
	gated, err := Run(context.Background(), cases, axes, Options{Workers: 4, Limiter: NewLimiter(1)})
	if err != nil {
		t.Fatalf("limited run: %v", err)
	}
	if free.Table() != gated.Table() {
		t.Fatal("limiter changed the sweep report")
	}
}
