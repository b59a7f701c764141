package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"

	"systolic"
)

// benchmarkJSON is the shape of the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []workloadDef    `json:"workloads"`
	EndToEnd   []endToEndMetric `json:"end_to_end"`
	PerLayer   []layerMetric    `json:"per_layer"`
}

// TestBenchmarkJSONMatchesTable holds the root BENCHMARK.json to the
// table in metrics.go, so the contract file and the harness cannot
// drift apart.
func TestBenchmarkJSONMatchesTable(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if want := []string{"go", "run", "./tools/perf"}; !reflect.DeepEqual(b.Command, want) {
		t.Errorf("command %v, want %v", b.Command, want)
	}
	if want := []string{"tools/perf"}; !reflect.DeepEqual(b.Paths, want) {
		t.Errorf("paths %v, want %v", b.Paths, want)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", b.RunSeconds)
	}
	if !reflect.DeepEqual(b.Workloads, workloadTable) {
		t.Errorf("workloads differ from workloadTable:\n json %+v\ntable %+v", b.Workloads, workloadTable)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEndTable) {
		t.Errorf("end_to_end differs from endToEndTable:\n json %+v\ntable %+v", b.EndToEnd, endToEndTable)
	}
	if !reflect.DeepEqual(b.PerLayer, layerTable) {
		t.Errorf("per_layer differs from layerTable")
	}

	if len(workloadTable) != 6 || len(endToEndTable) > 16 || len(layerTable) > 128 {
		t.Errorf("%d workloads, %d end-to-end, %d per-layer metrics", len(workloadTable), len(endToEndTable), len(layerTable))
	}
	seen := map[string]bool{}
	name := func(n, unit string) {
		if !metricNameRE.MatchString(n) {
			t.Errorf("name %q is not [A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
		}
		if unit != "" && !metricUnitRE.MatchString(unit) {
			t.Errorf("%s: unit %q", n, unit)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloadTable {
		name(w.Name, "")
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range endToEndTable {
		name(m.Name, m.Unit)
		if m.Better != lower && m.Better != higher {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
		if m.Bound <= 0 || m.Bound > setupBound {
			t.Errorf("%s: bound %v outside (0, %v]", m.Name, m.Bound, setupBound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == lower && m.Bound == setupBound)
	}
	if !setup {
		t.Error("setup_s (s, lower, the largest bound) is missing")
	}
	for _, m := range layerTable {
		name(m.Name, m.Unit)
		if m.Better != lower && m.Better != higher {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
	for _, n := range exactLayerCounts {
		if !seen[n] {
			t.Errorf("exact count %q is not a layer metric", n)
		}
	}
}

// TestWorkloadSmoke runs every workload at test size: the digest is
// stable across two runs of one seed and across the untraced and the
// traced pass, differs for another seed, nothing fails, and each pass
// reports exactly the metrics the driver expects of it.
func TestWorkloadSmoke(t *testing.T) {
	for _, name := range workloadNames() {
		t.Run(name, func(t *testing.T) {
			pass := func(seed int64, traced bool) *passResult {
				t.Helper()
				res, err := runPass(passConfig{workload: name, seed: seed, traced: traced, size: tiny})
				if err != nil {
					t.Fatalf("seed %d traced %v: %v", seed, traced, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("seed %d traced %v: correct %v, %d/%d failed: %v", seed, traced, res.Correct, res.Failed, res.Attempted, res.Problems)
				}
				return res
			}
			first, again, traced, other := pass(1, false), pass(1, false), pass(1, true), pass(2, false)
			if first.SimDigest != again.SimDigest {
				t.Errorf("digest %s then %s for one seed", first.SimDigest, again.SimDigest)
			}
			if first.SimDigest != traced.SimDigest {
				t.Errorf("digest %s untraced, %s traced", first.SimDigest, traced.SimDigest)
			}
			if first.SimDigest == other.SimDigest {
				t.Errorf("digest %s for seed 1 and seed 2 alike", first.SimDigest)
			}
			line := driverLine(first)
			for _, m := range endToEndTable {
				if v, ok := line.Metrics[m.Name]; !ok || v.Unit != m.Unit {
					t.Errorf("untraced pass: metric %s missing or in %q", m.Name, v.Unit)
				}
			}
			if len(line.Metrics) != len(endToEndTable) {
				t.Errorf("untraced pass reports %d metrics, want %d", len(line.Metrics), len(endToEndTable))
			}
			line = driverLine(traced)
			for _, m := range layerTable {
				if _, ok := line.Metrics[m.Name]; !ok {
					t.Errorf("traced pass: metric %s missing", m.Name)
				}
			}
			if len(line.Metrics) != len(layerTable) {
				t.Errorf("traced pass reports %d metrics, want %d", len(line.Metrics), len(layerTable))
			}
			for n := range traced.PerLayer {
				if _, ok := line.Metrics[n]; !ok {
					t.Errorf("layer value %s is not in layerTable", n)
				}
			}
		})
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{5, 50}, {19, 50}, {20, 50}, {30, 66}, {100, 90}, {1000, 99}, {20000, 99.9}, {200000, 99.99}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// The percentile it names must leave at least ten samples beyond it.
	for n := 20; n < 5000; n += 7 {
		if beyond := float64(n) * (1 - tailPercentile(n)/100); beyond < 10-1e-9 {
			t.Fatalf("n=%d: p%v leaves %.2f samples beyond it", n, tailPercentile(n), beyond)
		}
	}
}

// TestDecomposedAnalysisMatchesAnalyze keeps the traced pass honest:
// on every cold-pipeline scenario, at full size, the decomposed
// analysis yields what systolic.Analyze yields.
func TestDecomposedAnalysisMatchesAnalyze(t *testing.T) {
	w := newColdPipeline(full).(*libraryWorkload)
	if err := w.setUp(1, nil); err != nil {
		t.Fatal(err)
	}
	for _, sc := range w.scs {
		want, err := systolic.Analyze(sc.prog, sc.topo, sc.aopts)
		if err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		got, err := analyzeDecomposed(sc.prog, sc.topo, sc.aopts, nil, -1, -1)
		if err != nil {
			t.Fatalf("%s: decomposed: %v", sc.name, err)
		}
		if got.DeadlockFree != want.DeadlockFree || got.Strict != want.Strict || !reflect.DeepEqual(got.Blocked, want.Blocked) {
			t.Errorf("%s: classification (%v, %v), want (%v, %v)", sc.name, got.DeadlockFree, got.Strict, want.DeadlockFree, want.Strict)
		}
		if !reflect.DeepEqual(got.Labeling, want.Labeling) {
			t.Errorf("%s: labelings differ", sc.name)
		}
		if got.MinQueuesDynamic != want.MinQueuesDynamic || got.MinQueuesStatic != want.MinQueuesStatic {
			t.Errorf("%s: min queues (%d, %d), want (%d, %d)", sc.name, got.MinQueuesDynamic, got.MinQueuesStatic, want.MinQueuesDynamic, want.MinQueuesStatic)
		}
		if !reflect.DeepEqual(got.Routes, want.Routes) {
			t.Errorf("%s: routes differ", sc.name)
		}
	}
}

// syntheticDocument is a one-workload result whose every end-to-end
// metric reads base, with rounds spreading by spreadShare around it.
func syntheticDocument(base, spreadShare float64) *document {
	w := passResult{Workload: "run-busy", Attempted: 100, Correct: true, SimDigest: "d", EndToEnd: map[string]value{}, PerLayer: layerValues{"machine.sim_cycles": 7}}
	for _, m := range endToEndTable {
		w.EndToEnd[m.Name] = value{Value: base, Unit: m.Unit, Min: base * (1 - spreadShare/2), Max: base * (1 + spreadShare/2)}
	}
	return &document{Schema: 1, Workloads: []passResult{w}}
}

func TestCompareVerdicts(t *testing.T) {
	ops := endToEndMetric{Name: "ops_per_s", Better: higher, Bound: 0.10}
	lat := endToEndMetric{Name: "op_p50_ms", Better: lower, Bound: 0.10}
	val := func(v, lo, hi float64) value { return value{Value: v, Min: lo, Max: hi} }
	for _, c := range []struct {
		name string
		m    endToEndMetric
		a, b value
		want string
	}{
		{"same", ops, val(100, 99, 101), val(100, 99, 101), verdictOK},
		{"higher-is-better gained", ops, val(100, 99, 101), val(130, 129, 131), verdictOK},
		{"higher-is-better lost inside the bound", ops, val(100, 99, 101), val(95, 94, 96), verdictOK},
		{"higher-is-better lost past the bound", ops, val(100, 99, 101), val(85, 84, 86), verdictWorse},
		{"lower-is-better lost past the bound", lat, val(10, 9.9, 10.1), val(12, 11.9, 12.1), verdictWorse},
		{"lower-is-better gained", lat, val(10, 9.9, 10.1), val(8, 7.9, 8.1), verdictOK},
		{"wide and overlapping", ops, val(100, 80, 120), val(85, 70, 100), verdictUnresolved},
		{"wide, disjoint, better", ops, val(100, 80, 120), val(150, 130, 170), verdictOK},
		{"wide, disjoint, worse", ops, val(100, 90, 120), val(70, 60, 80), verdictWorse},
	} {
		if got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}

	var out bytes.Buffer
	if !compareDocuments(&out, syntheticDocument(100, 0.02), syntheticDocument(100, 0.02)) {
		t.Errorf("a document compared with itself is not acceptable:\n%s", out.String())
	}
	if rows := strings.Count(out.String(), "run-busy"); rows != len(endToEndTable) {
		t.Errorf("%d rows, want one per end-to-end metric (%d)", rows, len(endToEndTable))
	}
	// Every metric reads 150 against 100: the lower-is-better rows are
	// worse by more than any bound in the table.
	if compareDocuments(&out, syntheticDocument(100, 0.02), syntheticDocument(150, 0.02)) {
		t.Error("a 50 % move was accepted")
	}
	failing := syntheticDocument(100, 0.02)
	failing.Workloads[0].Failed = 1
	if compareDocuments(&out, syntheticDocument(100, 0.02), failing) {
		t.Error("a rise in failed/attempted was accepted")
	}
	moved := syntheticDocument(100, 0.02)
	moved.Workloads[0].SimDigest = "e"
	if compareDocuments(&out, syntheticDocument(100, 0.02), moved) {
		t.Error("a sim_digest difference was accepted")
	}
	counted := syntheticDocument(100, 0.02)
	counted.Workloads[0].PerLayer["machine.sim_cycles"] = 8
	if compareDocuments(&out, syntheticDocument(100, 0.02), counted) {
		t.Error("a changed exact count was accepted")
	}
}

// TestCommittedDigestsCoverEveryWorkload keeps testdata/digests.json in
// step with the workload table.
func TestCommittedDigestsCoverEveryWorkload(t *testing.T) {
	digests := committedDigests()
	for _, name := range workloadNames() {
		if len(digests[name]) != 16 {
			t.Errorf("testdata/digests.json: %s has digest %q", name, digests[name])
		}
	}
	if len(digests) != len(workloadTable) {
		t.Errorf("testdata/digests.json names %d workloads, the table %d", len(digests), len(workloadTable))
	}
}
