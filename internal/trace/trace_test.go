package trace

import (
	"strings"
	"testing"

	"systolic/internal/assign"
	"systolic/internal/crossoff"
	"systolic/internal/label"
	"systolic/internal/machine"
	"systolic/internal/model"
	"systolic/internal/topology"
	"systolic/internal/workload"
)

func TestProgramTableColumns(t *testing.T) {
	w := workload.Fig2()
	s := ProgramTable(w.Program)
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	// Header + rule + 11 op rows (C1 is the longest program).
	if len(lines) != 13 {
		t.Fatalf("table has %d lines:\n%s", len(lines), s)
	}
	if !strings.Contains(lines[0], "Host") || !strings.Contains(lines[0], "C3") {
		t.Fatalf("header wrong: %q", lines[0])
	}
	if !strings.Contains(s, "W(XA)") || !strings.Contains(s, "R(YC)") {
		t.Fatalf("ops missing:\n%s", s)
	}
}

func TestScheduleTableFig4(t *testing.T) {
	w := workload.Fig2()
	rounds, _ := crossoff.Schedule(w.Program)
	s := ScheduleTable(w.Program, rounds)
	if !strings.Contains(s, "Step  1: W(XA)@Host/R(XA)@C1") {
		t.Fatalf("step 1 wrong:\n%s", s)
	}
	if !strings.Contains(s, "Step 12") {
		t.Fatalf("missing step 12:\n%s", s)
	}
}

func TestScheduleTableRendersSkips(t *testing.T) {
	w := workload.Fig5P1()
	res := crossoff.Run(w.Program, crossoff.Options{Lookahead: true, Budget: crossoff.UniformBudget(2)})
	s := ScheduleTable(w.Program, []crossoff.Round{{Step: 1, Pairs: res.Order}})
	if !strings.Contains(s, "skipping") {
		t.Fatalf("skips not rendered:\n%s", s)
	}
	if n := strings.Count(s, "/R("); n != len(res.Order) || n < 6 {
		t.Fatalf("%d pairs rendered of %d:\n%s", n, len(res.Order), s)
	}
}

func TestLabelsRendering(t *testing.T) {
	w := workload.Fig7(workload.Fig7Options{})
	lab, err := label.Assign(w.Program, label.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := Labels(w.Program, lab)
	// Sorted by label: A (1) first, B (3) last.
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[0], "A") || !strings.HasPrefix(lines[2], "B") {
		t.Fatalf("labels render:\n%s", s)
	}
}

func TestLabelsEmpty(t *testing.T) {
	w := workload.Fig2()
	if s := Labels(w.Program, label.Labeling{}); !strings.Contains(s, "no labeling") {
		t.Fatalf("empty labeling render %q", s)
	}
}

func TestTimelineAndRunSummary(t *testing.T) {
	w := workload.Fig7(workload.Fig7Options{})
	lab, err := label.Assign(w.Program, label.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.Compile(w.Program, w.Topology, nil, lab.Dense)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(machine.ExecOptions{
		QueuesPerLink:  1,
		Capacity:       1,
		Policy:         assign.Compatible(),
		RecordTimeline: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	tl := Timeline(w.Program, w.Topology, res.Timeline)
	if !strings.Contains(tl, "link C3--C4") || !strings.Contains(tl, "bound to C") {
		t.Fatalf("timeline:\n%s", tl)
	}
	if !strings.Contains(tl, "released by") {
		t.Fatalf("no release events:\n%s", tl)
	}
	sum := RunSummary(w.Program, res)
	if !strings.Contains(sum, "completed") || !strings.Contains(sum, "words moved") {
		t.Fatalf("summary:\n%s", sum)
	}
}

func TestRunSummaryDeadlock(t *testing.T) {
	b := model.NewBuilder()
	c1 := b.AddCell("C1")
	c2 := b.AddCell("C2")
	a := b.DeclareMessage("A", c1, c2, 1)
	bm := b.DeclareMessage("B", c2, c1, 1)
	b.Read(c1, bm).Write(c1, a)
	b.Read(c2, a).Write(c2, bm)
	p := b.MustBuild()
	m, err := machine.Compile(p, topology.Linear(2), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(machine.ExecOptions{
		QueuesPerLink: 2,
		Capacity:      2,
		Policy:        assign.Naive(assign.FCFS, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	s := RunSummary(p, res)
	if !strings.Contains(s, "deadlocked") || !strings.Contains(s, "stuck at") {
		t.Fatalf("deadlock summary:\n%s", s)
	}
}

func TestQueueStatsTable(t *testing.T) {
	w := workload.Fig2()
	lab, err := label.Assign(w.Program, label.Options{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := machine.Compile(w.Program, w.Topology, nil, lab.Dense)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(machine.ExecOptions{
		QueuesPerLink: 2,
		Capacity:      2,
		Policy:        assign.Compatible(),
	})
	if err != nil {
		t.Fatal(err)
	}
	s := QueueStatsTable(w.Program, w.Topology, res.Stats.Queues)
	if !strings.Contains(s, "Host--C1") || !strings.Contains(s, "max-occ") {
		t.Fatalf("stats table:\n%s", s)
	}
	// Six queues total (3 links × 2); the Host–C1 link moved XA (4
	// words) and YA (2 words).
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 7 {
		t.Fatalf("stats table has %d lines:\n%s", len(lines), s)
	}
}

func TestQueueSequences(t *testing.T) {
	w := workload.Fig3()
	s, err := QueueSequences(w.Program, w.Topology)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s, "C1→C2, C2→C3, C3→C4") {
		t.Fatalf("message A route missing:\n%s", s)
	}
}
