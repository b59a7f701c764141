package server

import (
	"context"
	"testing"

	"systolic/internal/assign"
	"systolic/internal/core"
	"systolic/internal/dsl"
	"systolic/internal/machine"
)

// benchMachine compiles the relay scenario once, outside the measured
// region, exactly as the cache does.
func benchMachine(tb testing.TB) *machine.Machine {
	tb.Helper()
	f, err := dsl.Parse(relayDSL)
	if err != nil {
		tb.Fatalf("parse: %v", err)
	}
	a, err := core.Analyze(f.Program, f.Topology, core.AnalyzeOptions{})
	if err != nil {
		tb.Fatalf("analyze: %v", err)
	}
	m, err := a.Machine()
	if err != nil {
		tb.Fatalf("compile: %v", err)
	}
	return m
}

// bareRun is the comparison baseline: a pooled machine.Run with a
// fresh policy instance, the cost floor any serving layer sits on.
func bareRun(tb testing.TB, m *machine.Machine) {
	res, err := m.Run(machine.ExecOptions{
		Policy:        assign.Compatible(),
		QueuesPerLink: 1,
		Capacity:      1,
	})
	if err != nil {
		tb.Fatalf("run: %v", err)
	}
	if !res.Completed {
		tb.Fatalf("baseline run did not complete")
	}
}

// BenchmarkBareMachineRun measures the floor.
func BenchmarkBareMachineRun(b *testing.B) {
	m := benchMachine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bareRun(b, m)
	}
}

// BenchmarkServeCacheHit measures the server's submit-to-result hit
// path (executeRun: source hash, cache probe, limiter, pooled run),
// excluding HTTP/JSON framing. The acceptance criterion is that its
// allocations stay within 2x of BenchmarkBareMachineRun — the cache
// hit must cost a small constant over the bare pooled run.
func BenchmarkServeCacheHit(b *testing.B) {
	s := New(Options{})
	ctx := context.Background()
	req := &RunRequest{Program: relayDSL, Queues: 1, Capacity: 1}
	var resp RunResponse
	if _, err := s.executeRun(ctx, req, &resp); err != nil { // warm the cache
		b.Fatalf("warm-up: %v", err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.executeRun(ctx, req, &resp); err != nil {
			b.Fatalf("run: %v", err)
		}
		if resp.Outcome != "completed" {
			b.Fatalf("outcome %q", resp.Outcome)
		}
	}
	if s.cache.misses.Load() != 1 {
		b.Fatalf("benchmark was not pure cache hits: %d misses", s.cache.misses.Load())
	}
}

// BenchmarkServeReplyHit measures the level above: a repeated identical
// request through the whole handler — routing, body read, one hash, the
// body-level probe, the reply document, result retention — which runs
// nothing. Compare with BenchmarkServeCacheHit, which is the simulation
// alone and what a repeat cost before replies were recorded.
func BenchmarkServeReplyHit(b *testing.B) {
	s, hit := replyHitHarness(b)
	before := s.cache.replyHits.Load()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hit()
	}
	if got := s.cache.replyHits.Load() - before; got != int64(b.N) {
		b.Fatalf("benchmark was not pure reply hits: %d of %d", got, b.N)
	}
}

// TestServeCacheHitAllocGate enforces the acceptance criterion as a
// plain test so CI fails fast without running benchmarks: the hit
// path's allocations must stay within 2x of a bare pooled run.
func TestServeCacheHitAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	m := benchMachine(t)
	bare := testing.AllocsPerRun(200, func() { bareRun(t, m) })

	s := New(Options{})
	ctx := context.Background()
	req := &RunRequest{Program: relayDSL, Queues: 1, Capacity: 1}
	var resp RunResponse
	if _, err := s.executeRun(ctx, req, &resp); err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	hit := testing.AllocsPerRun(200, func() {
		if _, err := s.executeRun(ctx, req, &resp); err != nil {
			t.Fatalf("run: %v", err)
		}
	})
	t.Logf("bare pooled run: %.1f allocs/op; serve hit path: %.1f allocs/op", bare, hit)
	if hit > 2*bare {
		t.Fatalf("serve hit path costs %.1f allocs/op, more than 2x the bare run's %.1f", hit, bare)
	}
}
