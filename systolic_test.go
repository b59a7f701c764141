package systolic_test

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"systolic"
)

func TestPublicPipelineOnFig2(t *testing.T) {
	w := systolic.Fig2Workload()
	a, err := systolic.Analyze(w.Program, w.Topology, systolic.AnalyzeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !a.DeadlockFree {
		t.Fatal("Fig 2 not deadlock-free")
	}
	res, err := systolic.Execute(a, systolic.ExecOptions{Capacity: 2, Logic: w.Logic})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("run %s", res.Outcome())
	}
	if err := w.CheckReceived(res.Received); err != nil {
		t.Fatal(err)
	}
}

func TestPublicClassifiers(t *testing.T) {
	p1 := systolic.Fig5P1Workload().Program
	if systolic.IsDeadlockFree(p1) {
		t.Fatal("P1 strict-admitted")
	}
	if !systolic.IsDeadlockFreeWithLookahead(p1, 2) {
		t.Fatal("P1 rejected at budget 2")
	}
	rounds, free := systolic.CrossOffSchedule(systolic.Fig2Workload().Program)
	if !free || len(rounds) != 12 {
		t.Fatalf("schedule: free=%v rounds=%d", free, len(rounds))
	}
}

func TestPublicLabeling(t *testing.T) {
	p := systolic.Fig7Workload(systolic.Fig7Options{}).Program
	lab, err := systolic.AssignLabels(p, systolic.LabelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := systolic.CheckLabels(p, lab); err != nil {
		t.Fatal(err)
	}
	triv := systolic.TrivialLabels(p)
	if err := systolic.CheckLabels(p, triv); err != nil {
		t.Fatal(err)
	}
	classes := systolic.RelatedMessages(systolic.Fig8Workload().Program)
	foundPair := false
	for _, members := range classes {
		if len(members) == 2 {
			foundPair = true
		}
	}
	if !foundPair {
		t.Fatal("Fig 8 related class missing")
	}
}

func TestPublicTopologiesAndRoutes(t *testing.T) {
	w := systolic.Fig7Workload(systolic.Fig7Options{})
	routes, err := systolic.Routes(w.Program, w.Topology)
	if err != nil {
		t.Fatal(err)
	}
	comp := systolic.Competing(routes)
	if len(comp) == 0 {
		t.Fatal("no competing sets")
	}
	for _, topo := range []systolic.Topology{
		systolic.LinearArray(4), systolic.RingArray(5), systolic.Mesh(2, 3),
		systolic.GraphTopology(3, [][2]systolic.CellID{{0, 1}, {1, 2}}),
	} {
		if topo.NumCells() < 3 {
			t.Fatalf("%s too small", topo.Name())
		}
	}
}

func TestPublicDSLRoundTrip(t *testing.T) {
	p := systolic.Fig6Workload().Program
	src := systolic.FormatDSL(p, systolic.RingArray(4))
	q, topo, err := systolic.ParseDSL(src)
	if err != nil {
		t.Fatal(err)
	}
	if q.NumMessages() != p.NumMessages() || topo.Name() != "ring(4)" {
		t.Fatal("DSL round trip lost structure")
	}
}

func TestPublicPreconditions(t *testing.T) {
	w := systolic.Fig8Workload()
	lab, err := systolic.AssignLabels(w.Program, systolic.LabelOptions{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := systolic.CheckPreconditions(w.Program, w.Topology, lab.Dense, 1)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MaxGroup != 2 || len(rep.Violations) == 0 {
		t.Fatalf("report %+v", rep)
	}
}

func TestMemModelPublic(t *testing.T) {
	rows, err := systolic.MemModelTable(systolic.MemModelDefaultSweep())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Speedup < 1 {
			t.Fatalf("systolic slower than mem-to-mem: %v", r)
		}
	}
}

func TestRenderersPublic(t *testing.T) {
	w := systolic.Fig2Workload()
	if !strings.Contains(systolic.RenderProgram(w.Program), "W(XA)") {
		t.Fatal("RenderProgram empty")
	}
	seqs, err := systolic.RenderQueueSequences(w.Program, w.Topology)
	if err != nil || !strings.Contains(seqs, "Host→C1") {
		t.Fatalf("RenderQueueSequences: %v\n%s", err, seqs)
	}
}

// ExampleIsDeadlockFree demonstrates the §3 classifier on the paper's
// P3: a circular read-before-write that no amount of buffering fixes.
func ExampleIsDeadlockFree() {
	b := systolic.NewProgram()
	c1 := b.AddCell("C1")
	c2 := b.AddCell("C2")
	a := b.DeclareMessage("A", c1, c2, 1)
	bb := b.DeclareMessage("B", c2, c1, 1)
	b.Read(c1, bb).Write(c1, a) // C1: R(B) W(A)
	b.Read(c2, a).Write(c2, bb) // C2: R(A) W(B)
	p := b.MustBuild()
	fmt.Println("strict:", systolic.IsDeadlockFree(p))
	fmt.Println("with lookahead:", systolic.IsDeadlockFreeWithLookahead(p, 8))
	// Output:
	// strict: false
	// with lookahead: false
}

// ExampleAnalyze runs the full avoidance pipeline on Fig 7 and shows
// the paper's labels.
func ExampleAnalyze() {
	w := systolic.Fig7Workload(systolic.Fig7Options{})
	a, _ := systolic.Analyze(w.Program, w.Topology, systolic.AnalyzeOptions{})
	for _, name := range []string{"A", "C", "B"} {
		m, _ := w.Program.MessageByName(name)
		fmt.Printf("%s=%d ", name, a.Labeling.Dense[m.ID])
	}
	res, _ := systolic.Execute(a, systolic.ExecOptions{QueuesPerLink: 1})
	fmt.Println(res.Outcome())
	// Output:
	// A=1 C=2 B=3 completed
}

// TestSweepFacade is the acceptance check for the public sweep API: a
// grid of ≥ 100 configurations produces the same report with 1 worker
// and with runtime.NumCPU() workers.
func TestSweepFacade(t *testing.T) {
	f7 := systolic.Fig7Workload(systolic.Fig7Options{})
	f8 := systolic.Fig8Workload()
	cases := []systolic.SweepCase{
		{Name: "fig7", Program: f7.Program, Topology: f7.Topology},
		{Name: "fig8", Program: f8.Program, Topology: f8.Topology},
	}
	axes := systolic.SweepAxes{
		Policies:   []systolic.PolicyKind{systolic.NaiveFCFS, systolic.NaiveRandom, systolic.StaticAssignment, systolic.DynamicCompatible},
		Queues:     []int{0, 1, 2, 3},
		Capacities: []int{1, 2},
		Lookaheads: []int{0, 2},
		Seed:       3,
	}
	if n := axes.Size(len(cases)); n < 100 {
		t.Fatalf("grid has %d configurations, want ≥ 100", n)
	}
	seq, err := systolic.Sweep(context.Background(), cases, axes, systolic.SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := systolic.Sweep(context.Background(), cases, axes, systolic.SweepOptions{Workers: runtime.NumCPU()})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("1-worker and NumCPU-worker sweep reports differ")
	}
	if seq.Table() != par.Table() {
		t.Fatal("rendered sweep tables differ across worker counts")
	}
}
