// Command benchjson converts `go test -bench` output on stdin into a
// machine-readable JSON document on stdout, so CI can archive
// benchmark trajectories (e.g. BENCH_sweep.json: the sweep engine at
// 1 and 4 pool workers) without scraping logs. Each benchmark line
// becomes one entry with its iteration count and every reported metric,
// custom metrics included; non-bench lines are ignored. The output is
// deterministic for a given input.
//
//	go test -run '^$' -bench BenchmarkSweep -benchmem . | go run ./tools/benchjson
//
// With -baseline FILE the current results are also compared against a
// committed baseline document: every baseline benchmark must still
// exist, and its machine-independent metrics (allocs/op, B/op) must
// not exceed the baseline by more than -tolerance (a fraction;
// default 0.10). Timing metrics are recorded but by default never
// compared — they measure the CI runner, not the code. The exception
// is opt-in: -time-tolerance FRACTION (> 0) additionally gates the
// per-simulated-work timing metric ns/sim-cycle, which divides out
// how much work the benchmark did and only moves with real per-cycle
// cost; a generous fraction (e.g. 0.5: fail only beyond 1.5× the
// baseline) keeps runner noise from flapping the gate while an
// order-of-magnitude regression still fails. ns/op stays advisory
// always. On regression the diff goes to stderr and the exit status
// is 1.
//
//	go test -bench BenchmarkSweep -benchmem . | go run ./tools/benchjson -baseline BENCH_sweep.json -time-tolerance 0.5
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// entry is one parsed benchmark result line.
type entry struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// document is the emitted JSON shape. Version guards the schema so a
// committed baseline from a future incompatible format fails loudly
// instead of comparing garbage.
type document struct {
	Version    int     `json:"version"`
	Benchmarks []entry `json:"benchmarks"`
}

// docVersion is the current schema version.
const docVersion = 1

// comparedMetrics are the machine-independent metrics a baseline
// comparison checks. ns/op and custom timing metrics vary with the
// host and are excluded by design.
var comparedMetrics = [...]string{"allocs/op", "B/op"}

// timedMetrics are the per-simulated-work timing metrics gated only
// when -time-tolerance is set. Wall-clock ns/op is deliberately not
// here: it scales with the benchmark's workload size, while these
// divide the workload out and only move with real per-unit cost.
var timedMetrics = [...]string{"ns/sim-cycle"}

// parseLine parses one "BenchmarkX-8  N  V unit  V unit ..." line;
// ok is false for anything that is not a benchmark result.
func parseLine(line string) (entry, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return entry{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return entry{}, false
	}
	e := entry{Name: fields[0], Iterations: iters, Metrics: map[string]float64{}}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return entry{}, false
		}
		e.Metrics[fields[i+1]] = v
	}
	return e, true
}

// parse reads benchmark output into a document.
func parse(r io.Reader) (document, error) {
	doc := document{Version: docVersion, Benchmarks: []entry{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if e, ok := parseLine(sc.Text()); ok {
			doc.Benchmarks = append(doc.Benchmarks, e)
		}
	}
	return doc, sc.Err()
}

// normName strips the trailing -<GOMAXPROCS> suffix Go appends to
// benchmark names, so a baseline recorded on a 1-proc machine matches
// the same benchmark on a 4-proc CI runner.
func normName(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 || i == len(name)-1 {
		return name
	}
	for _, r := range name[i+1:] {
		if r < '0' || r > '9' {
			return name
		}
	}
	return name[:i]
}

// compare checks cur against base and returns one human-readable
// violation per regression: a baseline benchmark that disappeared, or
// a compared metric exceeding baseline*(1+tol). When timeTol > 0 the
// timed metrics (ns/sim-cycle) are additionally gated against
// baseline*(1+timeTol); 0 leaves timing advisory. Benchmarks only in
// cur are fine — coverage may grow freely. Names are matched with the
// GOMAXPROCS suffix stripped.
func compare(cur, base document, tol, timeTol float64) []string {
	curBy := make(map[string]entry, len(cur.Benchmarks))
	for _, e := range cur.Benchmarks {
		curBy[normName(e.Name)] = e
	}
	gate := func(bad []string, b, c entry, metrics []string, tol float64) []string {
		for _, m := range metrics {
			bv, inBase := b.Metrics[m]
			cv, inCur := c.Metrics[m]
			if !inBase {
				continue
			}
			if !inCur {
				bad = append(bad, fmt.Sprintf("%s: metric %s in baseline but not reported (run with -benchmem?)", b.Name, m))
				continue
			}
			if cv > bv*(1+tol) {
				bad = append(bad, fmt.Sprintf("%s: %s regressed: %.0f > baseline %.0f (+%.0f%% allowed)", b.Name, m, cv, bv, tol*100))
			}
		}
		return bad
	}
	var bad []string
	for _, b := range base.Benchmarks {
		c, ok := curBy[normName(b.Name)]
		if !ok {
			bad = append(bad, fmt.Sprintf("%s: in baseline but not in current run", b.Name))
			continue
		}
		bad = gate(bad, b, c, comparedMetrics[:], tol)
		if timeTol > 0 {
			bad = gate(bad, b, c, timedMetrics[:], timeTol)
		}
	}
	return bad
}

// loadBaseline reads and validates a committed baseline document.
func loadBaseline(path string) (document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return document{}, err
	}
	var doc document
	if err := json.Unmarshal(data, &doc); err != nil {
		return document{}, fmt.Errorf("%s: %v", path, err)
	}
	if doc.Version != docVersion {
		return document{}, fmt.Errorf("%s: baseline schema version %d, this tool writes %d", path, doc.Version, docVersion)
	}
	return doc, nil
}

func main() {
	baseline := flag.String("baseline", "", "baseline JSON to compare allocation metrics against")
	tolerance := flag.Float64("tolerance", 0.10, "allowed fractional increase over baseline metrics")
	timeTolerance := flag.Float64("time-tolerance", 0, "when > 0, also gate ns/sim-cycle at baseline*(1+this); 0 keeps timing advisory")
	flag.Parse()

	doc, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if *baseline == "" {
		return
	}
	base, err := loadBaseline(*baseline)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if bad := compare(doc, base, *tolerance, *timeTolerance); len(bad) > 0 {
		for _, b := range bad {
			fmt.Fprintln(os.Stderr, "benchjson:", b)
		}
		fmt.Fprintf(os.Stderr, "benchjson: %d regression(s) against %s\n", len(bad), *baseline)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchjson: OK against %s\n", *baseline)
}
