package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// host stamps a result document with where and on what it was made.
type host struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
}

func stampHost() host {
	h := host{
		Commit: "unknown", GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: "unknown",
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
				h.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return h
}

// document is what the suite writes. Each workload is its untraced
// pass — the end-to-end metrics — with the traced pass's layer block
// and problems merged in.
type document struct {
	Schema    int          `json:"schema"`
	Host      host         `json:"host"`
	Seed      int64        `json:"seed"`
	Seconds   float64      `json:"seconds"`
	Workloads []passResult `json:"workloads"`
}

func (d *document) correct() bool {
	for _, w := range d.Workloads {
		if !w.Correct {
			return false
		}
	}
	return true
}

func (d *document) workload(name string) *passResult {
	for i := range d.Workloads {
		if d.Workloads[i].Workload == name {
			return &d.Workloads[i]
		}
	}
	return nil
}

func readDocument(path string) (*document, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d document
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if d.Schema != 1 || len(d.Workloads) == 0 {
		return nil, fmt.Errorf("%s: not a perf result document", path)
	}
	return &d, nil
}

type suiteConfig struct {
	seed     int64
	seconds  float64
	traceDir string // "" = a fresh temporary directory
	log      io.Writer
}

// runSuite runs every workload untraced and then traced, each pass in
// a child process of this binary.
func runSuite(cfg suiteConfig) (*document, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("find own binary: %w", err)
	}
	scratch, err := os.MkdirTemp("", "perf-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	traceDir := cfg.traceDir
	if traceDir == "" {
		// Kept for the reader; never inside the repository.
		if traceDir, err = os.MkdirTemp("", "perf-trace-"); err != nil {
			return nil, err
		}
	} else if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	fmt.Fprintf(cfg.log, "trace files: %s\n", traceDir)

	child := func(name string, traced bool) (*passResult, error) {
		resFile := filepath.Join(scratch, "pass.json")
		args := []string{"-workload", name, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds), "-out", resFile, "-trace", "0"}
		if traced {
			args[len(args)-1] = "1"
			args = append(args, "-trace-out", filepath.Join(traceDir, name+".trace.json"))
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = cfg.log, os.Stderr
		// A failed check exits 1 but still leaves its result; anything
		// else left nothing to read.
		runErr := cmd.Run()
		data, err := os.ReadFile(resFile)
		if err != nil {
			return nil, fmt.Errorf("%s: %w (child: %v)", name, err, runErr)
		}
		var res passResult
		if err := json.Unmarshal(data, &res); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		return &res, os.Remove(resFile)
	}

	doc := &document{Schema: 1, Host: stampHost(), Seed: cfg.seed, Seconds: cfg.seconds}
	for _, name := range workloadNames() {
		plain, err := child(name, false)
		if err != nil {
			return nil, err
		}
		doc.Workloads = append(doc.Workloads, *plain)
	}
	for i, name := range workloadNames() {
		traced, err := child(name, true)
		if err != nil {
			return nil, err
		}
		w := &doc.Workloads[i]
		w.PerLayer = traced.PerLayer
		w.Problems = append(w.Problems, traced.Problems...)
		w.Correct = w.Correct && traced.Correct
		if traced.SimDigest != w.SimDigest {
			w.Correct = false
			w.Problems = append(w.Problems, fmt.Sprintf("sim_digest %s untraced but %s traced", w.SimDigest, traced.SimDigest))
		}
	}
	return doc, nil
}
