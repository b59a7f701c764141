package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"systolic/internal/core"
	"systolic/internal/sweep"
)

// checkCSV holds a grid's CSV to the committed copy next to its
// config, testdata/<name>.csv, written by an earlier build.
func checkCSV(t *testing.T, got, name string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name+".csv"))
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gotLines), len(wantLines)) {
			if gotLines[i] != wantLines[i] {
				t.Fatalf("testdata/%s.csv line %d:\n got  %q\n want %q", name, i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("testdata/%s.csv: %d lines written, %d in the file", name, len(gotLines), len(wantLines))
	}
}

// TestSmokeConfigEndToEnd runs the committed CI smoke grid through
// both drivers and pins the CSV artifact: two runs of the same config
// produce byte-identical CSV, the drivers agree, the CSV has exactly
// one row per grid point, and it equals testdata/smoke.csv.
func TestSmokeConfigEndToEnd(t *testing.T) {
	cfg, err := loadConfig(filepath.Join("testdata", "smoke.json"))
	if err != nil {
		t.Fatal(err)
	}
	cases, err := buildCases(cfg.Cases)
	if err != nil {
		t.Fatal(err)
	}
	axes, err := buildAxes(cfg.Axes)
	if err != nil {
		t.Fatal(err)
	}
	rep, tm, err := runBoth(context.Background(), cases, axes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tm.points != axes.Size(len(cases)) {
		t.Fatalf("ran %d grid points, config spans %d", tm.points, axes.Size(len(cases)))
	}
	csv1 := writeCSV(rep)
	if got := strings.Count(csv1, "\n"); got != tm.points+1 {
		t.Fatalf("CSV has %d lines, want header + %d rows", got, tm.points)
	}
	rep2, _, err := runBoth(context.Background(), cases, axes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if csv2 := writeCSV(rep2); csv1 != csv2 {
		t.Fatal("two runs of the same config produced different CSV bytes")
	}
	checkCSV(t, csv1, "smoke")
	if !strings.Contains(csv1, "deadlocked") {
		t.Error("smoke grid produced no deadlocks; it no longer exercises the interesting rows")
	}
	md := tm.markdown()
	for _, want := range []string{"column-batched", "per-point", "µs/point"} {
		if !strings.Contains(md, want) {
			t.Errorf("timing table missing %q:\n%s", want, md)
		}
	}
}

// TestCSVShape pins the artifact schema: the exact header the
// experiment pipeline greps, and resolved queue budgets in the rows.
func TestCSVShape(t *testing.T) {
	rep := &sweep.Report{Outcomes: []sweep.Outcome{{
		Config:     sweep.Config{Policy: core.DynamicCompatible, Capacity: 2, Lookahead: 2},
		CaseName:   "fig7",
		QueuesUsed: 3,
		Result:     "completed",
		Cycles:     41,
	}}}
	got := writeCSV(rep)
	want := "case,policy,queues,capacity,lookahead,link_model,result,cycles,max_depth\n" +
		"fig7,dynamic-compatible,3,2,2,unit,completed,41,0\n"
	if got != want {
		t.Fatalf("CSV:\n%q\nwant:\n%q", got, want)
	}
	// Link-model specs swap commas for semicolons so the cell stays a
	// single cut-friendly CSV field.
	rep.Outcomes[0].LinkModel = "fixed,delay=3"
	if got := writeCSV(rep); !strings.Contains(got, ",fixed;delay=3,completed,") {
		t.Fatalf("retimed row not semicolonized:\n%q", got)
	}
}

// TestBuildCasesValidation covers the config error paths.
func TestBuildCasesValidation(t *testing.T) {
	if _, err := buildCases([]caseSpec{{Workload: "not-a-figure"}}); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := buildCases([]caseSpec{{}}); err == nil {
		t.Error("empty case spec accepted")
	}
	if _, err := buildCases([]caseSpec{{Workload: "fig7", Gen: &genSpec{Seed: 1}}}); err == nil {
		t.Error("ambiguous case spec accepted")
	}
	if _, err := buildAxes(axesSpec{Policies: []string{"not-a-policy"}}); err == nil {
		t.Error("unknown policy accepted")
	}
	// Topology overrides: unknown names fail, and hypercube demands a
	// power-of-two cell count (stencil is 3×3 = 9 cells).
	if _, err := buildCases([]caseSpec{{Workload: "fig7", Topology: "moebius"}}); err == nil {
		t.Error("unknown topology accepted")
	}
	if _, err := buildCases([]caseSpec{{Workload: "stencil", Topology: "hypercube"}}); err == nil {
		t.Error("hypercube over a 9-cell program accepted")
	}
}

// TestTopologyConfigEndToEnd runs the committed topology-sensitivity
// experiment: one FFT program re-homed on mesh, torus2d, and
// hypercube, swept across all three link-timing models. The CSV is
// byte-deterministic across runs (CI runs the binary twice and cmps),
// equals testdata/topology.csv, names every interconnect, and actually
// shows topology sensitivity —
// the same (policy, queues, link model) point must not cost the same
// number of cycles on every interconnect.
func TestTopologyConfigEndToEnd(t *testing.T) {
	cfg, err := loadConfig(filepath.Join("testdata", "topology.json"))
	if err != nil {
		t.Fatal(err)
	}
	cases, err := buildCases(cfg.Cases)
	if err != nil {
		t.Fatal(err)
	}
	axes, err := buildAxes(cfg.Axes)
	if err != nil {
		t.Fatal(err)
	}
	rep, tm, err := runBoth(context.Background(), cases, axes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tm.points != axes.Size(len(cases)) {
		t.Fatalf("ran %d grid points, config spans %d", tm.points, axes.Size(len(cases)))
	}
	csv1 := writeCSV(rep)
	for _, want := range []string{"fft@mesh", "fft@torus2d", "fft@hypercube", "unit", "fixed;delay=3", "congestion;delay=1"} {
		if !strings.Contains(csv1, want) {
			t.Errorf("CSV missing %q", want)
		}
	}
	rep2, _, err := runBoth(context.Background(), cases, axes, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if csv2 := writeCSV(rep2); csv1 != csv2 {
		t.Fatal("two runs of the topology config produced different CSV bytes")
	}
	checkCSV(t, csv1, "topology")
	// Group cycle counts by everything except the case name: at least
	// one configuration must separate the interconnects.
	type key struct {
		policy            string
		queues, cap, look int
		linkModel, result string
	}
	byCfg := map[key]map[int]bool{}
	for _, o := range rep.Outcomes {
		k := key{o.Policy.String(), o.QueuesUsed, o.Capacity, o.Lookahead, o.LinkModel, o.Result}
		if byCfg[k] == nil {
			byCfg[k] = map[int]bool{}
		}
		byCfg[k][o.Cycles] = true
	}
	sensitive := false
	for _, cycles := range byCfg {
		if len(cycles) > 1 {
			sensitive = true
			break
		}
	}
	if !sensitive {
		t.Error("every interconnect cost the same cycles at every point; the experiment shows no topology sensitivity")
	}
}

// TestLoadConfigRejectsUnknownFields keeps configs honest: a typo'd
// key must fail loudly, not silently sweep a different grid.
func TestLoadConfigRejectsUnknownFields(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"cases":[{"workload":"fig7"}],"axes":{"capacitys":[1]}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadConfig(bad); err == nil {
		t.Error("config with unknown field accepted")
	}
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte(`{"cases":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadConfig(empty); err == nil {
		t.Error("config with no cases accepted")
	}
}
