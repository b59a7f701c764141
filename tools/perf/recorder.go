package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync/atomic"
	"time"
)

// The span recorder of the traced pass. It lives in the harness only:
// spans are taken around the calls into each layer, from these files;
// the program under test is never instrumented. A nil *recorder is
// tracing switched off — every method is a nil check and nothing else,
// which is what lets the untraced pass share the op loops.

// spanName indexes spanNames; spans store the index, not the string.
type spanName uint8

const (
	spOp spanName = iota // one whole op: the root of its layer spans
	spFormat
	spParse
	spRoutes
	spCrossoff
	spLabelAssign
	spLabelCheck
	spVerify
	spAnalyze // a whole core.Analyze call
	spCompile
	spFingerprint
	spRun
	spCheck
	spSweep
	spClient  // serving: request as the client sees it
	spHandler // serving: the same request inside the harness middleware
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"harness.op", "dsl.format", "dsl.parse", "topology.routes", "crossoff.run",
	"label.assign", "label.check", "verify.preconditions", "core.analyze",
	"machine.compile", "machine.fingerprint", "machine.run", "harness.check",
	"sweep.run", "server.client", "server.handler",
}

// phase says which part of the run a span belongs to.
type phase uint8

const (
	phSetup phase = iota
	phRound
	phExtras
	numPhases
)

var phaseNames = [numPhases]string{"setup", "round", "extras"}

// counter indexes the counts taken at the same boundaries as spans.
type counter uint8

const (
	cParseBytes counter = iota
	cHops
	cPairs
	cCrossOps // program ops handed to the crossing-off procedure
	cMessages // messages handed to label.Assign
	cRuns
	cCycles
	cCellCycles // cells x cycles, the denominator of ns/cell-cycle
	cProgramOps // program ops of the programs run, the numerator of active_ratio
	cWords
	cGrants
	cGated
	cSweepPoints
	cSweepDeadlocks
	cRespBytes
	numCounters
)

var counterNames = [numCounters]string{
	"dsl.parse_bytes", "topology.hops", "crossoff.pairs", "crossoff.ops", "label.messages",
	"machine.runs", "machine.sim_cycles", "machine.cell_cycles", "machine.program_ops",
	"machine.words_moved", "machine.grants", "machine.gated_ops",
	"sweep.points", "sweep.deadlocks", "server.resp_bytes",
}

// span is one timed interval. parent is the index of the span that
// caused it (-1 for a root); spans of one op share op.
type span struct {
	name       spanName
	phase      phase
	parent     int32
	op         int32
	start, end int64 // ns since the recorder's epoch
}

// recorder appends spans to a preallocated slice. Slots are claimed
// with one atomic add and then written only by the claimant, so client
// goroutines and the serving middleware record without a lock.
type recorder struct {
	epoch   time.Time
	spans   []span
	next    atomic.Int64
	dropped atomic.Int64
	phase   atomic.Uint32
	counts  [numPhases][numCounters]atomic.Int64
}

// maxSpans bounds the trace: enough for every traced round of the
// busiest workload (serve-hit, two spans per request). Untouched
// slots are never paged in.
const maxSpans = 1 << 21

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, maxSpans)}
}

// setPhase labels every span and count recorded from now on.
func (r *recorder) setPhase(p phase) {
	if r != nil {
		r.phase.Store(uint32(p))
	}
}

// begin opens a span and returns its index, or -1 when tracing is off
// or the trace is full.
func (r *recorder) begin(name spanName, parent, op int32) int32 {
	if r == nil {
		return -1
	}
	i := r.next.Add(1) - 1
	if i >= int64(len(r.spans)) {
		r.dropped.Add(1)
		return -1
	}
	r.spans[i] = span{name: name, phase: phase(r.phase.Load()), parent: parent, op: op, start: int64(time.Since(r.epoch))}
	return int32(i)
}

// end closes a span opened by begin.
func (r *recorder) end(id int32) {
	if r == nil || id < 0 {
		return
	}
	r.spans[id].end = int64(time.Since(r.epoch))
}

// add counts work at a layer boundary.
func (r *recorder) add(c counter, n int64) {
	if r != nil {
		r.counts[r.phase.Load()][c].Add(n)
	}
}

// recorded returns the spans taken so far. Call it only once every
// goroutine that records has finished.
func (r *recorder) recorded() []span {
	n := r.next.Load()
	if n > int64(len(r.spans)) {
		n = int64(len(r.spans))
	}
	return r.spans[:n]
}

// spanTotals sums closed spans by phase and name.
type spanTotals struct {
	ns [numPhases][numSpanNames]int64
	n  [numPhases][numSpanNames]int64
}

func (r *recorder) totals() *spanTotals {
	t := new(spanTotals)
	for _, s := range r.recorded() {
		if s.end < s.start {
			continue // never closed: the op failed part-way
		}
		t.ns[s.phase][s.name] += s.end - s.start
		t.n[s.phase][s.name]++
	}
	return t
}

// count reads one counter of one phase.
func (r *recorder) count(p phase, c counter) int64 { return r.counts[p][c].Load() }

// traceSpan is the trace file's rendering of a span.
type traceSpan struct {
	ID      int    `json:"id"`
	Name    string `json:"name"`
	Phase   string `json:"phase"`
	Parent  int32  `json:"parent"`
	Op      int32  `json:"op"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// traceFile is the document -trace-out receives, written once at exit.
type traceFile struct {
	Workload string                      `json:"workload"`
	Seed     int64                       `json:"seed"`
	Epoch    time.Time                   `json:"epoch"`
	Dropped  int64                       `json:"dropped_spans"`
	Counts   map[string]map[string]int64 `json:"counts"`
	Spans    []traceSpan                 `json:"spans"`
}

// writeTrace dumps the in-memory trace to path.
func (r *recorder) writeTrace(path, workload string, seed int64) error {
	tf := traceFile{Workload: workload, Seed: seed, Epoch: r.epoch, Dropped: r.dropped.Load(), Counts: map[string]map[string]int64{}}
	for p := phase(0); p < numPhases; p++ {
		m := map[string]int64{}
		for c := counter(0); c < numCounters; c++ {
			if v := r.count(p, c); v != 0 {
				m[counterNames[c]] = v
			}
		}
		tf.Counts[phaseNames[p]] = m
	}
	rec := r.recorded()
	tf.Spans = make([]traceSpan, len(rec))
	for i, s := range rec {
		tf.Spans[i] = traceSpan{ID: i, Name: spanNames[s.name], Phase: phaseNames[s.phase], Parent: s.parent, Op: s.op, StartNS: s.start, EndNS: s.end}
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
