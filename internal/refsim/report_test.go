package refsim

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"systolic/internal/assign"
	"systolic/internal/fault"
	"systolic/internal/gen"
	"systolic/internal/label"
	"systolic/internal/machine"
	"systolic/internal/model"
	"systolic/internal/topology"
	"systolic/internal/workload"
)

// reportGolden holds the deadlock report text of every deadlocked run
// reportCorpus makes, as an earlier build rendered it.
const reportGolden = "testdata/deadlock-reports.golden"

// reportCorpus renders machine.DescribeBlocked for every deadlocked run
// over the equivalence suite's scenarios under every equivConfigs row —
// the fuzz corpus and the first 40 generated scenarios, which add the
// capacity-0 deadlocks the corpus lacks — and over Figs 7–9 under the
// naive policies at one queue per link. Both engines run each
// configuration and must render the same text; each report is headed
// by the run that produced it. visit sees each deadlocked Result of
// both engines with the configuration that produced it.
func reportCorpus(t *testing.T, visit func(cfg machine.ExecOptions, res *machine.Result)) string {
	t.Helper()
	var b strings.Builder
	report := func(name string, p *model.Program, topo topology.Topology, labels []int, cfg machine.ExecOptions) {
		ref, refErr := Run(p, topo, nil, labels, freshPolicy(cfg))
		got, gotErr := machineRun(p, topo, nil, labels, freshPolicy(cfg))
		if refErr != nil || gotErr != nil {
			// A refused configuration has no report; the equivalence
			// suite compares the two engines' errors.
			return
		}
		if ref.Deadlocked != got.Deadlocked {
			t.Fatalf("%s: reference deadlocked=%v, machine deadlocked=%v", name, ref.Deadlocked, got.Deadlocked)
		}
		if !got.Deadlocked {
			return
		}
		refText, gotText := machine.DescribeBlocked(p, ref.Blocked), machine.DescribeBlocked(p, got.Blocked)
		if refText != gotText {
			t.Fatalf("%s: deadlock reports differ\nreference:\n%smachine:\n%s", name, refText, gotText)
		}
		fmt.Fprintf(&b, "# %s\n%s", name, gotText)
		visit(cfg, ref)
		visit(cfg, got)
	}
	for _, ec := range append(corpusCases(t), generatedCases()[:40]...) {
		sc, err := gen.Generate(ec.seed, gen.Options{Mutations: ec.mutations, Cyclic: ec.cyclic})
		if err != nil {
			t.Fatalf("seed %d: %v", ec.seed, err)
		}
		p := sc.Program
		labels := label.Trivial(p).Dense
		if lab, err := label.Assign(p, label.Options{}); err == nil {
			labels = lab.Dense
		}
		var plan *fault.Plan
		if ec.faultClass != 0 {
			plan = gen.RandomFaults(ec.seed, p.NumCells(), len(sc.Topology.Links()),
				gen.FaultOptions{SlowdownsOnly: ec.faultClass == 1})
		}
		for i, cfg := range equivConfigs(labels) {
			if cfg.Faults == nil {
				cfg.Faults = plan
			}
			report(fmt.Sprintf("seed=%d mut=%d cyclic=%v faults=%d cfg=%d", ec.seed, ec.mutations, ec.cyclic, ec.faultClass, i),
				p, sc.Topology, labels, cfg)
		}
	}
	for _, w := range []*workload.Workload{workload.Fig7(workload.Fig7Options{}), workload.Fig8(), workload.Fig9()} {
		lab, err := label.Assign(w.Program, label.Options{})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		for _, pol := range []assign.Policy{
			assign.Naive(assign.FCFS, 0),
			assign.Naive(assign.LIFO, 0),
			assign.Naive(assign.Random, 7),
			assign.Naive(assign.LabelDescending, 0),
		} {
			cfg := machine.ExecOptions{Policy: pol, QueuesPerLink: 1, Capacity: w.DefaultCapacity}
			report(w.Name+" "+pol.Name(), w.Program, w.Topology, lab.Dense, cfg)
		}
	}
	return b.String()
}

// TestDeadlockReportGolden holds the deadlock report text, byte for
// byte, to the golden file: the stall cause each engine picks and the
// words machine.CellBlock.Reason gives it. The corpus must reach every
// cause, and deadlock under capacities 0 and 2, the §8.1 extension,
// faults and link models, so no part of the report goes unchecked.
func TestDeadlockReportGolden(t *testing.T) {
	var causes [machine.StallNoWord + 1]int
	regimes := map[string]int{}
	text := reportCorpus(t, func(cfg machine.ExecOptions, res *machine.Result) {
		for _, cb := range res.Blocked {
			causes[cb.Cause]++
		}
		for regime, on := range map[string]bool{
			"capacity 0": cfg.Capacity == 0,
			"capacity 2": cfg.Capacity == 2,
			"extension":  cfg.ExtCapacity > 0,
			"faults":     len(res.Faults) > 0,
			"link model": cfg.LinkModel != nil,
		} {
			if on {
				regimes[regime]++
			}
		}
	})
	t.Logf("stuck cells by cause %v; deadlocked runs by regime %v", causes, regimes)
	for cause, n := range causes {
		if n == 0 {
			t.Errorf("no stuck cell has cause %d: the corpus no longer reaches it", cause)
		}
	}
	for _, regime := range []string{"capacity 0", "capacity 2", "extension", "faults", "link model"} {
		if regimes[regime] == 0 {
			t.Errorf("no run deadlocks under %s: the corpus no longer reaches it", regime)
		}
	}
	want, err := os.ReadFile(reportGolden)
	if err != nil {
		t.Fatal(err)
	}
	if text != string(want) {
		gotLines, wantLines := strings.Split(text, "\n"), strings.Split(string(want), "\n")
		for i := range min(len(gotLines), len(wantLines)) {
			if gotLines[i] != wantLines[i] {
				t.Fatalf("%s line %d:\n got  %q\n want %q", reportGolden, i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("%s: %d lines rendered, %d in the file", reportGolden, len(gotLines), len(wantLines))
	}
}
