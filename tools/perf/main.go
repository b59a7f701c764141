// Command perf is the repository's benchmark: one harness that times
// every layer of the pipeline — dsl, topology, crossoff, label, verify,
// core, machine, sweep, server — from outside, through the public
// functions of systolic and internal/*, on six workloads, and reports
// the metrics the root BENCHMARK.json names.
//
//	go run ./tools/perf                     all six workloads, untraced then traced
//	go run ./tools/perf -workload run-busy -seed 3 -seconds 10 -trace 0
//	go run ./tools/perf -list               every workload and metric, from the one table
//	go run ./tools/perf -compare A.json B.json
//	go run ./tools/perf -selfcheck          the suite twice, compared with itself
//
// With -workload it runs that one workload in this process and prints,
// as the last line of standard output, one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// -trace 0, the per-layer metrics with -trace 1. Without it, each
// workload runs in a child process of its own (so peak RSS and GC state
// are per workload), first untraced and then traced, and the result is
// one document stamped with host and inputs. See README.md beside this
// file for what each workload and metric is for.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
)

//go:embed testdata/digests.json
var digestsJSON []byte

// committedDigests is the sim_digest of every workload at seed 1. A
// change that moves one changed what is simulated, not how fast.
func committedDigests() map[string]string {
	m := map[string]string{}
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		panic("testdata/digests.json: " + err.Error()) // embedded at build time
	}
	return m
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run only this workload, in this process (default: all six, one child process each)")
	seed := fs.Int64("seed", 1, "workload seed; the program under test receives only the generated inputs")
	seconds := fs.Float64("seconds", 10, "how long each pass measures")
	trace := fs.Int("trace", 0, "with -workload: 0 = untraced pass (end-to-end metrics), 1 = traced pass (per-layer metrics)")
	out := fs.String("out", "", "write the result document here instead of standard output")
	traceOut := fs.String("trace-out", "", "where the traced pass writes its spans: a file with -workload (default: not written), else a directory (default: a fresh temporary one)")
	list := fs.Bool("list", false, "print every workload and metric name, unit, direction and bound, then exit")
	compare := fs.Bool("compare", false, "compare two result documents: perf -compare A.json B.json")
	selfcheck := fs.Bool("selfcheck", false, "run the suite twice and compare the two runs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "perf:", err)
		return 1
	}
	switch {
	case *list:
		printList(stdout)
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "perf: -compare takes two result documents")
			return 2
		}
		a, err := readDocument(fs.Arg(0))
		if err != nil {
			return fail(err)
		}
		b, err := readDocument(fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if !compareDocuments(stdout, a, b) {
			return 1
		}
		return 0
	case *workload != "":
		res, err := runPass(passConfig{workload: *workload, seed: *seed, seconds: *seconds, traced: *trace != 0, traceOut: *traceOut})
		if err != nil {
			return fail(err)
		}
		printPass(stdout, res)
		if *out != "" {
			if err := writeJSON(*out, res); err != nil {
				return fail(err)
			}
		}
		// The driver's line: last on standard output.
		line, err := json.Marshal(driverLine(res))
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if !res.Correct {
			return 1
		}
		return 0
	}

	suite := suiteConfig{seed: *seed, seconds: *seconds, traceDir: *traceOut, log: stdout}
	doc, err := runSuite(suite)
	if err != nil {
		return fail(err)
	}
	ok := doc.correct()
	if *selfcheck {
		again, err := runSuite(suite)
		if err != nil {
			return fail(err)
		}
		ok = again.correct() && compareDocuments(stdout, doc, again) && ok
		doc = again
	}
	if *out != "" {
		err = writeJSON(*out, doc)
	} else {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		err = enc.Encode(doc)
	}
	if err != nil {
		return fail(err)
	}
	if !ok {
		return fail(errors.New("an output, digest or self-agreement check failed (see above)"))
	}
	return 0
}

// driverResult is the last line of a -workload run.
type driverResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func driverLine(res *passResult) driverResult {
	d := driverResult{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]driverValue{}}
	for name, v := range res.EndToEnd {
		d.Metrics[name] = driverValue{v.Value, v.Unit}
	}
	for _, m := range layerTable {
		if v, ok := res.PerLayer[m.Name]; ok {
			d.Metrics[m.Name] = driverValue{v, m.Unit}
		}
	}
	return d
}

// printPass prints one pass: every metric by name with its unit, the
// round spread beside each median.
func printPass(w io.Writer, res *passResult) {
	mode := "untraced"
	if res.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "%s seed %d (%s): %d rounds of %d ops, %d/%d checks failed, sim_digest %s\n",
		res.Workload, res.Seed, mode, res.Rounds, res.OpsPerRound, res.Failed, res.Attempted, res.SimDigest)
	for _, m := range endToEndTable {
		if v, ok := res.EndToEnd[m.Name]; ok {
			fmt.Fprintf(w, "  %-34s %14.4f %-9s [%.4f .. %.4f]\n", m.Name, v.Value, v.Unit, v.Min, v.Max)
		}
	}
	if res.PerLayer != nil {
		for _, m := range layerTable {
			fmt.Fprintf(w, "  %-34s %14.4f %s\n", m.Name, res.PerLayer[m.Name], m.Unit)
		}
	}
	for _, p := range res.Problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
}

// writeJSON writes v, indented, to path.
func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
