package main

import (
	"fmt"
	"io"
	"regexp"
)

// This file is the one table the harness reads: the workloads, the
// end-to-end metrics with their regression bounds, and the per-layer
// metrics. -list prints it, the result document and -compare look
// names up in it, and TestBenchmarkJSONMatchesTable holds the root
// BENCHMARK.json to it, so the JSON and the code cannot drift.

// workloadDef names one workload and records why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// endToEndMetric is a number a user of the system would see. Bound is
// the share of the baseline's median by which it may worsen before a
// change counts as a regression.
type endToEndMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// layerMetric is a number about one layer (layer = module name before
// the first dot), measured on the traced pass. Layer metrics have no
// bound: they explain an end-to-end move, they do not gate.
type layerMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

const (
	lower  = "lower"
	higher = "higher"
)

var workloadTable = []workloadDef{
	{"cold-pipeline", "CLI/library first contact: 8 programs from DSL text through parse, analyze, compile, one run and its check; analysis (above all labeling) does most of the work and machine.Run little"},
	{"run-busy", "per-cycle scheduler with ready sets proportional to the array (wide-linear, mesh flood, FFT, stencil) on precompiled analyses; sharding or a cheaper phase loop must show here"},
	{"run-sparse", "same machine layer used the opposite way: long chains with ~2 live messages, retimed and faulted, plus a 4000-cell sort; mostly-empty cycles and per-run reset cost dominate"},
	{"sweep-grid", "many short runs on few machines: the 336-point smoke grid and the 36-point topology x link-model grid through Sweep, analyses included; batching and per-point fixed costs dominate"},
	{"serve-hit", "daemon over loopback TCP, 2 closed-loop clients, every request an alias cache hit: HTTP, JSON, source hashing, admission and result retention do the work, the pipeline none"},
	{"serve-cold", "daemon with a 32-entry cache against never-seen programs, re-texted repeats and streamed and buffered sweeps: the whole pipeline and the streaming path behind the socket"},
}

// setupBound is the largest bound: set-up is measured a few times per
// run, not hundreds, so it is the noisiest number the harness reports.
const setupBound = 0.25

// timeBound is the bound of everything read off a clock. Rounds within
// a run agree to a few percent, but on a shared 2-core host runs minutes
// apart drift by more: ten runs of one build spread (quartile to
// quartile) by up to 9 % of their median, and a bound has to sit well
// clear of that to tell a change from the host. Counted metrics repeat
// exactly and keep the tight bound.
const timeBound = 0.20

var endToEndTable = []endToEndMetric{
	{"setup_s", "s", lower, setupBound},
	{"ops_per_s", "op/s", higher, timeBound},
	{"op_p50_ms", "ms", lower, timeBound},
	{"sim_cycles_per_s", "cycles/s", higher, timeBound},
	{"cpu_ms_per_op", "ms", lower, timeBound},
	{"allocs_per_op", "count", lower, 0.05},
	{"bytes_per_op", "B", lower, 0.05},
	{"peak_rss_mb", "MB", lower, timeBound},
}

var layerTable = []layerMetric{
	{"dsl.parse_ms", "ms", lower},
	{"dsl.parse_mb_per_s", "MB/s", higher},
	{"dsl.format_ms", "ms", lower},
	{"topology.routes_ms", "ms", lower},
	{"topology.hops", "count", lower},
	{"crossoff.run_ms", "ms", lower},
	{"crossoff.ns_per_op", "ns", lower},
	{"crossoff.pairs", "count", lower},
	{"label.assign_ms", "ms", lower},
	{"label.us_per_message", "us", lower},
	{"label.check_ms", "ms", lower},
	{"verify.preconditions_ms", "ms", lower},
	{"core.analyze_ms", "ms", lower},
	{"core.analyze_self_ms", "ms", lower},
	{"core.runner_vs_execute", "ratio", lower},
	{"machine.compile_ms", "ms", lower},
	{"machine.fingerprint_ms", "ms", lower},
	{"machine.run_ms", "ms", lower},
	{"machine.ns_per_sim_cycle", "ns", lower},
	{"machine.ns_per_cell_cycle", "ns", lower},
	{"machine.ns_per_word_moved", "ns", lower},
	{"machine.run_allocs", "count", lower},
	{"machine.sim_cycles", "count", lower},
	{"machine.words_moved", "count", lower},
	{"machine.grants", "count", lower},
	{"machine.gated_ops", "count", lower},
	{"machine.active_ratio", "ratio", higher},
	{"machine.shard4_vs_1", "ratio", lower},
	{"sweep.us_per_point", "us", lower},
	{"sweep.points", "count", higher},
	{"sweep.deadlocks", "count", lower},
	{"sweep.analyze_share", "ratio", lower},
	{"sweep.perpoint_vs_batched", "ratio", higher},
	{"sweep.workers2_vs_1", "ratio", lower},
	{"server.run_hit.p50_us", "us", lower},
	{"server.run_hit.tail_us", "us", lower},
	{"server.analyze_hit.p50_us", "us", lower},
	{"server.handler_p50_us", "us", lower},
	{"server.wire_p50_us", "us", lower},
	{"server.overhead_vs_bare", "ratio", lower},
	{"server.resp_bytes_per_op", "B", lower},
	{"server.run_miss.p50_ms", "ms", lower},
	{"server.run_miss.tail_ms", "ms", lower},
	{"server.run_canon.p50_ms", "ms", lower},
	{"server.sweep_stream.p50_ms", "ms", lower},
	{"server.sweep_stream.first_row_ms", "ms", lower},
	{"server.sweep_buffered.p50_ms", "ms", lower},
	{"server.cache_hits", "count", higher},
	{"server.cache_misses", "count", lower},
	{"server.cache_evictions", "count", lower},
	{"server.shed", "count", lower},
	{"harness.op_tail_ms", "ms", lower},
	{"harness.op_tail_pct", "pct", higher},
	{"harness.op_samples", "count", higher},
	{"harness.round_spread", "ratio", lower},
	{"harness.trace_overhead", "ratio", lower},
}

// exactLayerCounts are the layer metrics a deterministic simulator and
// a fixed request schedule repeat exactly; -compare treats any
// difference in them as the model changing, not the speed.
var exactLayerCounts = []string{
	"machine.sim_cycles", "machine.words_moved", "machine.grants", "machine.gated_ops",
	"sweep.points", "sweep.deadlocks",
	"server.cache_hits", "server.cache_misses", "server.cache_evictions", "server.shed",
}

var (
	metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	metricUnitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// workloadNames lists the table's workloads in order.
func workloadNames() []string {
	names := make([]string, len(workloadTable))
	for i, w := range workloadTable {
		names[i] = w.Name
	}
	return names
}

// printList renders the table for -list.
func printList(w io.Writer) {
	fmt.Fprintln(w, "workloads:")
	for _, wl := range workloadTable {
		fmt.Fprintf(w, "  %-14s %s\n", wl.Name, wl.Why)
	}
	fmt.Fprintln(w, "\nend-to-end metrics (every workload, untraced pass):")
	fmt.Fprintf(w, "  %-34s %-9s %-7s %s\n", "name", "unit", "better", "bound")
	for _, m := range endToEndTable {
		fmt.Fprintf(w, "  %-34s %-9s %-7s %.2f\n", m.Name, m.Unit, m.Better, m.Bound)
	}
	fmt.Fprintln(w, "  failed/attempted ride beside the metrics; any failure is a regression (bound 0)")
	fmt.Fprintln(w, "\nper-layer metrics (traced pass, no bound):")
	for _, m := range layerTable {
		fmt.Fprintf(w, "  %-34s %-9s %-7s\n", m.Name, m.Unit, m.Better)
	}
}
