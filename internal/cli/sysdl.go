package cli

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"

	"systolic"
)

// SysdlOptions are the flags of the sysdl tool.
type SysdlOptions struct {
	Queues    int
	Capacity  int
	Policy    string
	Seed      int64
	Lookahead bool
	Timeline  bool
	Stats     bool
	Force     bool

	// Fault is a fault-plan spec (see systolic.ParseFaultSpec) the run
	// and sweep verbs apply to every simulation, and the fuzz verb
	// applies to every scenario it fits. Empty runs the perfect array.
	Fault string

	// LinkModel is a link-timing spec (see systolic.ParseLinkModelSpec)
	// the run verb applies to the simulation. Empty keeps unit-latency
	// links.
	LinkModel string

	// sweep-verb flags: comma-separated axis values ("" = defaults)
	// and the worker-pool bound (0 = GOMAXPROCS).
	SweepPolicies   string
	SweepQueues     string
	SweepCapacities string
	SweepLookaheads string
	// SweepLinkModels is the link-timing axis, semicolon-separated
	// (specs contain commas); an empty element is unit latency.
	SweepLinkModels string
	Workers         int

	// fuzz-verb flags: scenario count and generation knobs. The fuzz
	// verb also reuses -seed (base seed), -queues (> 0 forces an
	// absolute under-budget probe) and -workers.
	FuzzN          int
	FuzzMutations  int
	FuzzCyclic     bool
	FuzzCells      int
	FuzzInterleave int
	FuzzTopology   string
	FuzzLookahead  int
	FuzzFaults     bool
	FuzzLinkModels bool

	// serve-verb flags: listen address, compiled-scenario cache bound,
	// the process-wide concurrent-simulation budget, the bounded
	// admission wait pool (0 = 2×max-concurrency, -1 = shed
	// immediately), and an optional tenants file enabling per-tenant
	// API keys and quotas.
	Addr           string
	CacheSize      int
	MaxConcurrency int
	QueueWait      int
	TenantsFile    string

	// Profiling flags, usable with every verb: write a pprof CPU or
	// heap profile covering the whole command (see StartProfiles).
	CPUProfile string
	MemProfile string
}

// DefaultSysdlOptions returns the tool's flag defaults.
func DefaultSysdlOptions() SysdlOptions {
	return SysdlOptions{
		Capacity: 1, Policy: "compatible", Seed: 1, FuzzN: 256, FuzzMutations: 2,
		Addr: "127.0.0.1:8080", CacheSize: 128,
	}
}

// BindFlags registers on fs the options verb reads, so the flag
// package refuses every other flag: the profiling flags on every verb,
// -lookahead and -capacity on label, plan and run, and each verb's own.
// check and render read no option.
func (o *SysdlOptions) BindFlags(fs *flag.FlagSet, verb string) {
	on := func(verbs ...string) bool { return slices.Contains(verbs, verb) }
	if on("label", "plan", "run") {
		fs.BoolVar(&o.Lookahead, "lookahead", o.Lookahead, "classify/label with §8 lookahead")
		fs.IntVar(&o.Capacity, "capacity", o.Capacity, "words per queue (0 runs as 1: the unbuffered latch is not reachable from sysdl)")
	}
	switch verb {
	case "run":
		fs.IntVar(&o.Queues, "queues", o.Queues, "queues per link (0 = minimum from analysis)")
		fs.StringVar(&o.Policy, "policy", o.Policy, "compatible|static|fcfs|lifo|random|adversarial")
		fs.BoolVar(&o.Timeline, "timeline", o.Timeline, "print queue bind/release timeline")
		fs.BoolVar(&o.Stats, "stats", o.Stats, "print per-queue statistics")
		fs.BoolVar(&o.Force, "force", o.Force, "run even when Theorem 1's queue requirement is unmet")
		fs.StringVar(&o.LinkModel, "link-model", o.LinkModel, "link-timing spec, e.g. fixed,delay=3 or congestion,delay=1,threshold=2,max=4 (empty = unit latency)")
	case "sweep":
		fs.StringVar(&o.SweepPolicies, "sweep-policies", o.SweepPolicies, "comma-separated policies (default fcfs,static,compatible)")
		fs.StringVar(&o.SweepQueues, "sweep-queues", o.SweepQueues, "comma-separated queue budgets, 0 = auto (default 0,1,2,3)")
		fs.StringVar(&o.SweepCapacities, "sweep-capacities", o.SweepCapacities, "comma-separated capacities (default 1,2)")
		fs.StringVar(&o.SweepLookaheads, "sweep-lookaheads", o.SweepLookaheads, "comma-separated lookahead budgets, 0 = strict (default 0,2)")
		fs.StringVar(&o.SweepLinkModels, "sweep-link-models", o.SweepLinkModels, "semicolon-separated link-timing specs, empty element = unit latency (default unit only)")
	case "fuzz":
		fs.IntVar(&o.Queues, "queues", o.Queues, "absolute queues per link for every run, below the Theorem 1 bound to probe it (0 = the bound and one above)")
		fs.IntVar(&o.FuzzN, "n", o.FuzzN, "number of scenarios (seeds seed..seed+n-1)")
		fs.IntVar(&o.FuzzMutations, "fuzz-mutations", o.FuzzMutations, "adjacent-op swaps per scenario (0 = deadlock-free by construction)")
		fs.BoolVar(&o.FuzzCyclic, "fuzz-cyclic", o.FuzzCyclic, "allow cyclic data flow")
		fs.IntVar(&o.FuzzCells, "fuzz-cells", o.FuzzCells, "cells per scenario (0 = per-seed random)")
		fs.IntVar(&o.FuzzInterleave, "fuzz-interleave", o.FuzzInterleave, "interleave depth (0 = per-seed random)")
		fs.StringVar(&o.FuzzTopology, "fuzz-topology", o.FuzzTopology, "auto|linear|ring|mesh")
		fs.IntVar(&o.FuzzLookahead, "fuzz-lookahead", o.FuzzLookahead, "§8 analysis budget (0 = strict)")
		fs.BoolVar(&o.FuzzFaults, "faults", o.FuzzFaults, "additionally check each scenario degraded by a seeded fault plan")
		fs.BoolVar(&o.FuzzLinkModels, "link-models", o.FuzzLinkModels, "additionally check each scenario under retimed link models (noop-equivalence, completion)")
	case "serve":
		fs.StringVar(&o.Addr, "addr", o.Addr, "listen address")
		fs.IntVar(&o.CacheSize, "cache-size", o.CacheSize, "compiled-scenario cache bound (entries)")
		fs.IntVar(&o.MaxConcurrency, "max-concurrency", o.MaxConcurrency, "concurrent simulations (0 = GOMAXPROCS)")
		fs.IntVar(&o.QueueWait, "queue-wait", o.QueueWait, "requests allowed to wait for a run slot before shedding with 429 (0 = 2x max-concurrency, -1 = none)")
		fs.StringVar(&o.TenantsFile, "tenants", o.TenantsFile, "tenants JSON file enabling per-tenant API keys and quotas (empty = anonymous)")
	}
	if on("run", "sweep", "fuzz") {
		seed := "seed for the random policy"
		if verb == "fuzz" {
			seed = "first scenario seed"
		}
		fs.Int64Var(&o.Seed, "seed", o.Seed, seed)
		fs.StringVar(&o.Fault, "fault", o.Fault, "fault-plan spec, e.g. cell:1:slow=2,link:0:sever@9 (empty = perfect array)")
	}
	if on("sweep", "fuzz") {
		fs.IntVar(&o.Workers, "workers", o.Workers, "worker-pool size (0 = GOMAXPROCS)")
	}
	fs.StringVar(&o.CPUProfile, "cpuprofile", o.CPUProfile, "write a pprof CPU profile to this file")
	fs.StringVar(&o.MemProfile, "memprofile", o.MemProfile, "write a pprof heap profile to this file on exit")
}

// StartProfiles starts the profiling the options ask for and returns
// a stop function that must run exactly once before the process
// exits: it ends the CPU profile and writes the heap profile. With
// both flags empty it is a no-op. The profiles cover the entire
// command — parse, analysis, compile, and every simulated cycle — so
// `sysdl sweep big.sys -cpuprofile cpu.out` feeds straight into
// `go tool pprof`.
func StartProfiles(opts SysdlOptions) (stop func() error, err error) {
	var cpuFile *os.File
	if opts.CPUProfile != "" {
		cpuFile, err = os.Create(opts.CPUProfile)
		if err != nil {
			return nil, fmt.Errorf("cli: -cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cli: -cpuprofile: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("cli: -cpuprofile: %w", err)
			}
		}
		if opts.MemProfile != "" {
			f, err := os.Create(opts.MemProfile)
			if err != nil {
				return fmt.Errorf("cli: -memprofile: %w", err)
			}
			defer f.Close()
			runtime.GC() // settle live objects so the heap profile reflects retention
			if err := pprof.WriteHeapProfile(f); err != nil {
				return fmt.Errorf("cli: -memprofile: %w", err)
			}
		}
		return nil
	}, nil
}

// Sysdl executes one sysdl subcommand over DSL source text, writing
// human output to w. It returns the process exit code and an error for
// usage/config problems (already reflected in the exit code). The
// fuzz verb generates its own programs and ignores src.
func Sysdl(w io.Writer, cmd, src string, opts SysdlOptions) (int, error) {
	if cmd == "fuzz" {
		return fuzz(w, opts)
	}
	p, topo, err := systolic.ParseDSL(src)
	if err != nil {
		return 1, err
	}
	switch cmd {
	case "check":
		strict := systolic.IsDeadlockFree(p)
		fmt.Fprintf(w, "strict crossing-off: deadlock-free=%v\n", strict)
		for _, b := range []int{1, 2, 4} {
			fmt.Fprintf(w, "lookahead (budget %d): deadlock-free=%v\n",
				b, systolic.IsDeadlockFreeWithLookahead(p, b))
		}
		if !strict {
			for _, f := range systolic.SuggestFixes(p, 3) {
				fmt.Fprintf(w, "hint: %s\n", systolic.DescribeFix(p, f))
			}
			return 1, nil
		}
		return 0, nil
	case "label":
		a, code, err := sysdlAnalyze(w, p, topo, opts)
		if err != nil || code != 0 {
			return code, err
		}
		fmt.Fprint(w, systolic.RenderLabels(p, a.Labeling))
		return 0, nil
	case "plan":
		a, code, err := sysdlAnalyze(w, p, topo, opts)
		if err != nil || code != 0 {
			return code, err
		}
		fmt.Fprintf(w, "deadlock-free: %v\n", a.DeadlockFree)
		fmt.Fprintf(w, "queues/link needed, dynamic compatible policy: %d\n", a.MinQueuesDynamic)
		fmt.Fprintf(w, "queues/link needed, static policy:             %d\n", a.MinQueuesStatic)
		return 0, nil
	case "run":
		a, code, err := sysdlAnalyze(w, p, topo, opts)
		if err != nil || code != 0 {
			return code, err
		}
		kind, err := parsePolicy(opts.Policy)
		if err != nil {
			return 2, err
		}
		plan, err := systolic.ParseFaultSpec(opts.Fault)
		if err != nil {
			return 2, err
		}
		lplan, err := systolic.ParseLinkModelSpec(opts.LinkModel)
		if err != nil {
			return 2, err
		}
		res, err := systolic.Execute(a, systolic.ExecOptions{
			Policy:         kind,
			QueuesPerLink:  opts.Queues,
			Capacity:       opts.Capacity,
			Seed:           opts.Seed,
			RecordTimeline: opts.Timeline,
			Force:          opts.Force,
			Faults:         plan,
			LinkModel:      lplan,
		})
		if err != nil {
			return 1, err
		}
		fmt.Fprint(w, systolic.RenderRun(p, res))
		if len(res.Faults) > 0 {
			fmt.Fprintln(w, "faults:")
			for _, f := range res.Faults {
				fmt.Fprintf(w, "  %s\n", f)
			}
			fmt.Fprintf(w, "gated ops: %d\n", res.Stats.GatedOps)
			for _, imp := range systolic.DegradedBudgets(a, plan) {
				fmt.Fprintf(w, "impact %s (%s): guarantee-holds=%v affected-messages=%d queues dynamic=%d static=%d\n",
					imp.Fault, imp.Class, imp.GuaranteeHolds, len(imp.AffectedMessages), imp.MinQueuesDynamic, imp.MinQueuesStatic)
			}
		}
		if li := systolic.LinkBudgets(a, lplan); li != nil {
			fmt.Fprintf(w, "link model %s: guarantee-holds=%v max-stretch=%d affected-messages=%d queues dynamic=%d static=%d\n",
				li.Model, li.GuaranteeHolds, li.MaxFactor, len(li.AffectedMessages), li.MinQueuesDynamic, li.MinQueuesStatic)
		}
		if opts.Timeline {
			fmt.Fprint(w, systolic.RenderTimeline(p, topo, res))
		}
		if opts.Stats {
			fmt.Fprint(w, systolic.RenderQueueStats(p, topo, res))
		}
		if !res.Completed {
			return 1, nil
		}
		return 0, nil
	case "render":
		fmt.Fprint(w, systolic.RenderProgram(p))
		s, err := systolic.RenderQueueSequences(p, topo)
		if err != nil {
			return 1, err
		}
		fmt.Fprintln(w, "\nroutes:")
		fmt.Fprint(w, s)
		return 0, nil
	case "sweep":
		axes, err := sweepAxes(opts)
		if err != nil {
			return 2, err
		}
		plan, err := systolic.ParseFaultSpec(opts.Fault)
		if err != nil {
			return 2, err
		}
		cases := []systolic.SweepCase{{Name: "program", Program: p, Topology: topo}}
		rep, err := systolic.Sweep(context.Background(), cases, axes,
			systolic.SweepOptions{Workers: opts.Workers, Faults: plan})
		if err != nil {
			return 1, err
		}
		fmt.Fprintf(w, "sweeping %d configurations\n\n", len(rep.Outcomes))
		fmt.Fprint(w, rep.Table())
		return 0, nil
	}
	return 2, fmt.Errorf("cli: unknown subcommand %q", cmd)
}

// fuzz runs the differential oracle: n generated scenarios checked
// against the paper's invariants across a worker pool. The report is
// byte-identical across runs for fixed flags. Exit code 1 means the
// oracle found invariant violations; expected under-budget
// counterexamples (when -queues forces a budget below the Theorem 1
// bound) keep exit code 0.
func fuzz(w io.Writer, opts SysdlOptions) (int, error) {
	topo, err := parseGenTopology(opts.FuzzTopology)
	if err != nil {
		return 2, err
	}
	if opts.FuzzN < 1 {
		return 2, fmt.Errorf("cli: -n %d < 1", opts.FuzzN)
	}
	plan, err := systolic.ParseFaultSpec(opts.Fault)
	if err != nil {
		return 2, err
	}
	dopts := systolic.DiffOptions{
		Gen: systolic.GenOptions{
			Cells:      opts.FuzzCells,
			Interleave: opts.FuzzInterleave,
			Mutations:  opts.FuzzMutations,
			Cyclic:     opts.FuzzCyclic,
			Topology:   topo,
		},
		QueueOverride: opts.Queues,
		Lookahead:     opts.FuzzLookahead,
		Workers:       opts.Workers,
		Faults:        plan,
		SeedFaults:    opts.FuzzFaults,
		LinkModels:    opts.FuzzLinkModels,
	}
	// Bad generation knobs (e.g. -fuzz-cells 1) fail for every seed
	// identically: catch them once up front as a usage error instead
	// of reporting n generate-error "violations".
	if _, err := systolic.GenerateProgram(opts.Seed, dopts.Gen); err != nil {
		return 2, err
	}
	rep, err := systolic.DiffRun(context.Background(), opts.FuzzN, opts.Seed, dopts)
	if err != nil {
		return 1, err
	}
	fmt.Fprint(w, rep.Summary())
	if len(rep.Violations()) > 0 {
		return 1, nil
	}
	return 0, nil
}

// parseGenTopology maps the -fuzz-topology flag value onto a
// generation family.
func parseGenTopology(name string) (systolic.GenTopoKind, error) {
	switch name {
	case "", "auto":
		return systolic.GenTopoAuto, nil
	case "linear":
		return systolic.GenTopoLinear, nil
	case "ring":
		return systolic.GenTopoRing, nil
	case "mesh":
		return systolic.GenTopoMesh, nil
	}
	return 0, fmt.Errorf("cli: unknown fuzz topology %q", name)
}

// sweepAxes builds the sweep grid from the comma-separated flag
// values; empty flags keep the engine defaults.
func sweepAxes(opts SysdlOptions) (systolic.SweepAxes, error) {
	axes := systolic.SweepAxes{Seed: opts.Seed}
	if opts.SweepPolicies != "" {
		for _, name := range strings.Split(opts.SweepPolicies, ",") {
			kind, err := parsePolicy(strings.TrimSpace(name))
			if err != nil {
				return axes, err
			}
			axes.Policies = append(axes.Policies, kind)
		}
	}
	var err error
	if axes.Queues, err = parseIntList(opts.SweepQueues, "sweep-queues"); err != nil {
		return axes, err
	}
	if axes.Capacities, err = parseIntList(opts.SweepCapacities, "sweep-capacities"); err != nil {
		return axes, err
	}
	if axes.Lookaheads, err = parseIntList(opts.SweepLookaheads, "sweep-lookaheads"); err != nil {
		return axes, err
	}
	// Link-model specs contain commas, so the axis splits on
	// semicolons; a lone empty flag keeps the engine default (unit
	// only), and an empty element inside a list is the unit row.
	if opts.SweepLinkModels != "" {
		for _, spec := range strings.Split(opts.SweepLinkModels, ";") {
			axes.LinkModels = append(axes.LinkModels, strings.TrimSpace(spec))
		}
	}
	return axes, nil
}

func parseIntList(s, flagName string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("cli: bad -%s value %q", flagName, f)
		}
		out = append(out, n)
	}
	return out, nil
}

func sysdlAnalyze(w io.Writer, p *systolic.Program, topo systolic.Topology, opts SysdlOptions) (*systolic.Analysis, int, error) {
	a, err := systolic.Analyze(p, topo, systolic.AnalyzeOptions{
		Lookahead: opts.Lookahead,
		Capacity:  opts.Capacity,
	})
	if err != nil {
		return nil, 1, err
	}
	if !a.DeadlockFree {
		fmt.Fprintln(w, "program is not deadlock-free (try -lookahead, or fix the program)")
		return nil, 1, nil
	}
	return a, 0, nil
}

// parsePolicy maps a policy flag value to a PolicyKind. It shares the
// serving layer's spelling (see systolic.ParsePolicyName).
func parsePolicy(name string) (systolic.PolicyKind, error) {
	kind, err := systolic.ParsePolicyName(name)
	if err != nil {
		return 0, fmt.Errorf("cli: unknown policy %q", name)
	}
	return kind, nil
}
