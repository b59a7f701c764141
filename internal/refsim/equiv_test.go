package refsim

// Engine-equivalence suite: the compiled machine (internal/machine,
// Compile + Run) must be byte-identical to the original full-scan
// engine (Run) on every scenario and configuration — same
// outcome, same cycle count, same received streams, same blocked-cell
// reports, same timelines, same queue statistics. The suite replays
// the checked-in fuzz corpus plus a few hundred generated scenarios
// under a matrix of policies, budgets, capacities, timelines, and
// extension settings.

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"systolic/internal/assign"
	"systolic/internal/fault"
	"systolic/internal/gen"
	"systolic/internal/label"
	"systolic/internal/linkmodel"
	"systolic/internal/machine"
	"systolic/internal/model"
	"systolic/internal/topology"
)

// mustLinkModel parses a link-model spec for the config matrix.
func mustLinkModel(spec string) *linkmodel.Plan {
	p, err := linkmodel.ParseSpec(spec)
	if err != nil {
		panic(fmt.Sprintf("equiv_test: bad link-model spec %q: %v", spec, err))
	}
	return p
}

// mustFaultPlan parses a fault spec for the config matrix.
func mustFaultPlan(spec string) *fault.Plan {
	p, err := fault.ParseSpec(spec)
	if err != nil {
		panic(fmt.Sprintf("equiv_test: bad fault spec %q: %v", spec, err))
	}
	return p
}

// equivCase is one (scenario seed, generation knobs) input. faultClass
// selects a degraded-array regime: 0 runs the perfect array, 1 a
// seeded periodic-only fault plan, 2 a seeded plan with terminal
// faults (dead cells / severed links) allowed.
type equivCase struct {
	seed       int64
	mutations  int
	cyclic     bool
	faultClass int
}

// corpusCases parses the native fuzz corpus checked in for the
// differential oracle, so the machines are compared on exactly the
// seeds the fuzzer found interesting. Corpus entries carry three byte
// knobs positionally — mutations, workload family, fault class; the
// family byte is oracle-only (internal/diff replays the families), the
// other two replay.
func corpusCases(t testing.TB) []equivCase {
	t.Helper()
	dir := filepath.Join("..", "diff", "testdata", "fuzz", "FuzzOracle")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("fuzz corpus: %v", err)
	}
	var out []equivCase
	for _, ent := range entries {
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		var c equivCase
		var bytes []int
		for _, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			switch {
			case strings.HasPrefix(line, "int64("):
				n, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(line, "int64("), ")"), 10, 64)
				if err != nil {
					t.Fatalf("%s: %v", ent.Name(), err)
				}
				c.seed = n
			case strings.HasPrefix(line, "byte("):
				n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(line, "byte("), ")"), 0, 8)
				if err != nil {
					t.Fatalf("%s: %v", ent.Name(), err)
				}
				bytes = append(bytes, int(n))
			case strings.HasPrefix(line, "bool("):
				c.cyclic = line == "bool(true)"
			}
		}
		if len(bytes) > 0 {
			c.mutations = bytes[0] % 8
		}
		if len(bytes) > 2 {
			c.faultClass = bytes[2] % 3
		}
		out = append(out, c)
	}
	if len(out) == 0 {
		t.Fatal("empty fuzz corpus")
	}
	return out
}

// generatedCases derives 200 deterministic scenarios spanning clean,
// mutated (deadlocking), and cyclic programs; half of them run
// degraded (alternating periodic-only and terminal fault plans).
func generatedCases() []equivCase {
	out := make([]equivCase, 0, 200)
	for i := int64(1); i <= 200; i++ {
		out = append(out, equivCase{
			seed:       i,
			mutations:  int(i % 5),
			cyclic:     i%3 == 0,
			faultClass: int(i % 4 % 3), // 0,1,2,0,0,1,2,0,…
		})
	}
	return out
}

// equivConfigs is the configuration matrix each scenario runs under.
// Policies are built fresh per engine per run (instances are
// stateful). labels may be nil; label-dependent rows then cover the
// shared setup-error path instead.
func equivConfigs(labels []int) []machine.ExecOptions {
	base := func(pol assign.Policy, queues, capacity int) machine.ExecOptions {
		return machine.ExecOptions{QueuesPerLink: queues, Capacity: capacity, Policy: pol}
	}
	cfgs := []machine.ExecOptions{
		base(assign.Naive(assign.FCFS, 0), 1, 1),
		base(assign.Naive(assign.FCFS, 0), 2, 2),
		base(assign.Naive(assign.LIFO, 0), 1, 1),
		base(assign.Naive(assign.Random, 7), 1, 2),
		base(assign.Static(), 3, 1),
		base(assign.Compatible(), 1, 1),
		base(assign.Compatible(), 2, 2),
	}
	timeline := base(assign.Naive(assign.FCFS, 0), 2, 1)
	timeline.RecordTimeline = true
	cfgs = append(cfgs, timeline)
	// Reserving policies under RecordTimeline: whole routes are bound
	// before any word moves, so the machine's occupied-hop windows
	// (head, tail) and its release order run against bound-but-empty
	// queues ahead of every header, with each bind and release in the
	// compared bytes — the second row with extension accesses cooling
	// inside the window.
	reserved := base(assign.Static(), 3, 1)
	reserved.RecordTimeline = true
	cfgs = append(cfgs, reserved)
	reservedExt := base(assign.Compatible(), 2, 2)
	reservedExt.RecordTimeline = true
	reservedExt.ExtCapacity = 2
	reservedExt.ExtPenalty = 2
	cfgs = append(cfgs, reservedExt)
	ext := base(assign.Naive(assign.FCFS, 0), 1, 1)
	ext.ExtCapacity = 2
	ext.ExtPenalty = 2
	cfgs = append(cfgs, ext)
	// A tight cycle bound pins the timed-out path (partial progress,
	// identical cut-off accounting).
	bounded := base(assign.Naive(assign.FCFS, 0), 1, 1)
	bounded.MaxCycles = 7
	cfgs = append(cfgs, bounded)
	if labels != nil {
		cfgs = append(cfgs, base(assign.Naive(assign.LabelDescending, 0), 1, 1))
	}
	// Link-timing rows: all three LinkModel kinds (uniform fixed
	// slowdown, bandwidth-limited with a per-link override, congestion
	// backpressure) replay through both engines.
	// The rows above pin the nil fast path; per-case fault plans apply
	// to these rows too, so LinkModel × fault composition is replayed
	// corpus-wide.
	for _, spec := range []string{
		"fixed,delay=3",
		"fixed,delay=2,credit=1,link:0:delay=4",
		"congestion,delay=1,threshold=2,max=4",
	} {
		lmrow := base(assign.Naive(assign.FCFS, 0), 2, 1)
		lmrow.LinkModel = mustLinkModel(spec)
		cfgs = append(cfgs, lmrow)
	}
	// One capacity-0 latch row under latency, so the rendezvous gate
	// and tally sites are replayed as well (multi-hop scenarios reject
	// capacity 0 identically in both engines).
	latch := base(assign.Naive(assign.FCFS, 0), 1, 0)
	latch.LinkModel = mustLinkModel("fixed,delay=2")
	cfgs = append(cfgs, latch)
	// Wide-window rows: delays, penalties and fault factors large
	// enough that most cycles have no event, so the machine's
	// idle-cycle fast-forward fires on nearly every scenario while the
	// reference engine steps through the same cycles one by one. Each
	// wake source is covered alone and composed: busy windows (fixed
	// and congestion), §8.1 cooldowns under a busy window, periodic
	// gates with coprime factors — one coming into effect mid-run —
	// under a busy window, the rendezvous gate site, and a cycle bound
	// that lands inside a window.
	for _, spec := range []string{
		"fixed,delay=37,credit=2",
		"congestion,delay=9,threshold=2,max=5",
	} {
		wide := base(assign.Naive(assign.FCFS, 0), 2, 1)
		wide.LinkModel = mustLinkModel(spec)
		cfgs = append(cfgs, wide)
	}
	cool := base(assign.Naive(assign.FCFS, 0), 1, 1)
	cool.ExtCapacity = 2
	cool.ExtPenalty = 9
	cool.LinkModel = mustLinkModel("fixed,delay=5")
	cfgs = append(cfgs, cool)
	gates := base(assign.Naive(assign.FCFS, 0), 2, 1)
	gates.Faults = mustFaultPlan("cell:1:slow=13@40,link:0:slow=1000")
	gates.LinkModel = mustLinkModel("fixed,delay=37")
	cfgs = append(cfgs, gates)
	wideLatch := base(assign.Naive(assign.FCFS, 0), 1, 0)
	wideLatch.LinkModel = mustLinkModel("fixed,delay=37")
	cfgs = append(cfgs, wideLatch)
	cutOff := base(assign.Naive(assign.FCFS, 0), 2, 1)
	cutOff.LinkModel = mustLinkModel("fixed,delay=37")
	cutOff.MaxCycles = 50
	cfgs = append(cfgs, cutOff)
	return cfgs
}

// freshPolicy rebuilds a config's policy so each engine gets its own
// instance (Setup must run exactly once per instance, and Random
// policies carry RNG state). Unknown names are a loud error: falling
// through would share one stateful instance between both engines and
// corrupt the comparison.
func freshPolicy(c machine.ExecOptions) machine.ExecOptions {
	switch c.Policy.Name() {
	case "compatible":
		c.Policy = assign.Compatible()
	case "static":
		c.Policy = assign.Static()
	case "naive-fcfs":
		c.Policy = assign.Naive(assign.FCFS, 0)
	case "naive-lifo":
		c.Policy = assign.Naive(assign.LIFO, 0)
	case "naive-random":
		c.Policy = assign.Naive(assign.Random, 7)
	case "naive-label-desc":
		c.Policy = assign.Naive(assign.LabelDescending, 0)
	default:
		panic(fmt.Sprintf("equiv_test: freshPolicy does not know how to rebuild %q; add it to the switch", c.Policy.Name()))
	}
	return c
}

// machineRun is the engine under test: machine.Compile + Run on the
// inputs Run takes.
func machineRun(p *model.Program, t topology.Topology, routes [][]topology.Hop, labels []int, opts machine.ExecOptions) (*machine.Result, error) {
	m, err := machine.Compile(p, t, routes, labels)
	if err != nil {
		return nil, err
	}
	return m.Run(opts)
}

// bothEngines runs one config through the reference engine and the
// machine, requires byte-identical results, and returns them.
func bothEngines(t *testing.T, p *model.Program, topo topology.Topology, opts machine.ExecOptions) *machine.Result {
	t.Helper()
	ref, refErr := Run(p, topo, nil, nil, freshPolicy(opts))
	got, gotErr := machineRun(p, topo, nil, nil, freshPolicy(opts))
	if refErr != nil || gotErr != nil {
		t.Fatalf("reference err=%v, machine err=%v", refErr, gotErr)
	}
	if !reflect.DeepEqual(ref, got) {
		t.Fatalf("machine diverged from the reference engine\nreference: %+v\nmachine:   %+v", ref, got)
	}
	return got
}

// pipeline builds C1→C2 with n words on message A.
func pipeline(t testing.TB, n int) *model.Program {
	t.Helper()
	b := model.NewBuilder()
	c1 := b.AddCell("C1")
	c2 := b.AddCell("C2")
	a := b.DeclareMessage("A", c1, c2, n)
	b.WriteN(c1, a, n)
	b.ReadN(c2, a, n)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// fcfs is the FCFS configuration the single-scenario tests start from.
func fcfs(queues, capacity int) machine.ExecOptions {
	return machine.ExecOptions{QueuesPerLink: queues, Capacity: capacity, Policy: assign.Naive(assign.FCFS, 0)}
}

// runEquivCase checks one scenario; it reports false when the
// scenario could not even be generated (so callers can bound how much
// of the suite silently evaporates).
func runEquivCase(t *testing.T, ec equivCase) bool {
	t.Helper()
	sc, err := gen.Generate(ec.seed, gen.Options{Mutations: ec.mutations, Cyclic: ec.cyclic})
	if err != nil {
		t.Logf("seed %d: generation failed: %v", ec.seed, err)
		return false
	}
	p := sc.Program
	// Labels when the scheme accepts the program; the trivial
	// everything-is-1 labeling otherwise, so label-ordered policies
	// are exercised on deadlocking programs too.
	var labels []int
	if lab, err := label.Assign(p, label.Options{}); err == nil {
		labels = lab.Dense
	} else {
		labels = label.Trivial(p).Dense
	}
	// Degraded replays: the seeded fault plan gates both engines at
	// identical points, so the comparison below must stay
	// byte-identical on the faulted array too.
	var plan *fault.Plan
	if ec.faultClass != 0 {
		plan = gen.RandomFaults(ec.seed, p.NumCells(), len(sc.Topology.Links()),
			gen.FaultOptions{SlowdownsOnly: ec.faultClass == 1})
	}
	for i, cfg := range equivConfigs(labels) {
		if cfg.Faults == nil {
			// Rows that carry their own plan keep it; a plan that does
			// not fit the scenario is rejected identically by both
			// engines, which the error comparison below covers.
			cfg.Faults = plan
		}
		ref, refErr := Run(p, sc.Topology, nil, labels, freshPolicy(cfg))
		got, gotErr := machineRun(p, sc.Topology, nil, labels, freshPolicy(cfg))
		name := fmt.Sprintf("seed=%d mut=%d cyclic=%v faults=%d cfg=%d (%s q=%d cap=%d)",
			ec.seed, ec.mutations, ec.cyclic, ec.faultClass, i, cfg.Policy.Name(), cfg.QueuesPerLink, cfg.Capacity)
		if (refErr != nil) != (gotErr != nil) {
			t.Fatalf("%s: reference err=%v, machine err=%v", name, refErr, gotErr)
		}
		if refErr != nil {
			if refErr.Error() != gotErr.Error() {
				t.Fatalf("%s: error text diverged:\n  reference: %v\n  machine:   %v", name, refErr, gotErr)
			}
			continue
		}
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("%s: results diverged\nreference: %+v\nmachine:   %+v\nprogram:\n%s", name, ref, got, p)
		}
	}
	return true
}

// runEquivCases runs a batch and fails if a meaningful fraction of it
// never generated — the suite must not silently dwindle.
func runEquivCases(t *testing.T, cases []equivCase) {
	t.Helper()
	ran := 0
	for _, ec := range cases {
		if runEquivCase(t, ec) {
			ran++
		}
	}
	if ran < len(cases)*9/10 {
		t.Fatalf("only %d of %d scenarios generated; the equivalence suite lost its coverage", ran, len(cases))
	}
}

func TestEngineEquivalenceOnFuzzCorpus(t *testing.T) {
	runEquivCases(t, corpusCases(t))
}

func TestEngineEquivalenceOnGeneratedScenarios(t *testing.T) {
	runEquivCases(t, generatedCases())
}

// TestEngineEquivalenceOnEmptyProgram: on a program without messages
// the received streams are empty, not nil, in both engines, whether
// the machine's run is a Machine.Run, whose exec hands its buffers
// over, or a batch Exec's, whose exec keeps them.
func TestEngineEquivalenceOnEmptyProgram(t *testing.T) {
	b := model.NewBuilder()
	b.AddCells("C", 2)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	topo := topology.Linear(2)
	want := bothEngines(t, p, topo, fcfs(1, 1))
	m, err := machine.Compile(p, topo, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	ex := m.NewExec()
	defer ex.Release()
	for run := 0; run < 2; run++ {
		got, err := ex.Run(fcfs(1, 1))
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("batch run %d: %+v, %v; want %+v", run, got, err, want)
		}
	}
}
