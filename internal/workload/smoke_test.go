package workload

import (
	"testing"

	"systolic/internal/assign"
	"systolic/internal/crossoff"
	"systolic/internal/label"
	"systolic/internal/machine"
	"systolic/internal/topology"
)

// TestSmokeFig2Schedule checks the headline Fig 4 structure: the Fig 2
// program crosses off in exactly 12 rounds, with two pairs in rounds
// 3, 5 and 9 and one pair elsewhere.
func TestSmokeFig2Schedule(t *testing.T) {
	w := Fig2()
	rounds, free := crossoff.Schedule(w.Program)
	if !free {
		t.Fatalf("Fig 2 program classified deadlocked")
	}
	if len(rounds) != 12 {
		t.Fatalf("Fig 2 schedule has %d rounds, want 12", len(rounds))
	}
	for _, r := range rounds {
		want := 1
		if r.Step == 3 || r.Step == 5 || r.Step == 9 {
			want = 2
		}
		if len(r.Pairs) != want {
			t.Errorf("round %d has %d pairs, want %d", r.Step, len(r.Pairs), want)
		}
	}
}

// TestSmokeFig7Labels checks the §6 walkthrough: picking A's pair
// first labels A, B, C as 1, 3, 2.
func TestSmokeFig7Labels(t *testing.T) {
	w := Fig7(Fig7Options{})
	lab, err := label.Assign(w.Program, label.Options{})
	if err != nil {
		t.Fatalf("labeling failed: %v", err)
	}
	get := func(name string) int {
		m, ok := w.Program.MessageByName(name)
		if !ok {
			t.Fatalf("no message %s", name)
		}
		return lab.Dense[m.ID]
	}
	if a, b, c := get("A"), get("B"), get("C"); a != 1 || b != 3 || c != 2 {
		t.Fatalf("labels A=%d B=%d C=%d, want 1/3/2", a, b, c)
	}
	if err := label.Check(w.Program, lab.ByMessage); err != nil {
		t.Fatalf("labeling inconsistent: %v", err)
	}
}

// TestSmokeFIREndToEnd runs Fig 2 under the full avoidance pipeline
// and checks the filter outputs.
func TestSmokeFIREndToEnd(t *testing.T) {
	w := Fig2()
	lab, err := label.Assign(w.Program, label.Options{})
	if err != nil {
		t.Fatalf("labeling: %v", err)
	}
	m, err := machine.Compile(w.Program, w.Topology, nil, lab.Dense)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(machine.ExecOptions{
		QueuesPerLink: w.DefaultQueues,
		Capacity:      w.DefaultCapacity,
		Policy:        assign.Compatible(),
		Logic:         w.Logic,
	})
	if err != nil {
		t.Fatalf("sim config: %v", err)
	}
	if !res.Completed {
		t.Fatalf("run %s: %s", res.Outcome(), machine.DescribeBlocked(w.Program, res.Blocked))
	}
	if err := w.CheckReceived(res.Received); err != nil {
		t.Fatal(err)
	}
}

// TestSmokeFig7DeadlockAndAvoidance reproduces Fig 7's lower half: one
// queue per link, naive FCFS assignment deadlocks; compatible
// assignment with the paper's labels completes.
func TestSmokeFig7DeadlockAndAvoidance(t *testing.T) {
	w := Fig7(Fig7Options{})
	lab, err := label.Assign(w.Program, label.Options{})
	if err != nil {
		t.Fatalf("labeling: %v", err)
	}
	m, err := machine.Compile(w.Program, w.Topology, nil, lab.Dense)
	if err != nil {
		t.Fatal(err)
	}
	base := machine.ExecOptions{QueuesPerLink: 1, Capacity: 1}

	naive := base
	naive.Policy = assign.Naive(assign.FCFS, 0)
	resN, err := m.Run(naive)
	if err != nil {
		t.Fatalf("naive sim: %v", err)
	}
	if !resN.Deadlocked {
		t.Fatalf("naive FCFS run %s, want deadlock", resN.Outcome())
	}

	good := base
	good.Policy = assign.Compatible()
	resC, err := m.Run(good)
	if err != nil {
		t.Fatalf("compatible sim: %v", err)
	}
	if !resC.Completed {
		t.Fatalf("compatible run %s: %s", resC.Outcome(), machine.DescribeBlocked(w.Program, resC.Blocked))
	}
}

// TestSmokeFig5P1Lookahead checks the §8 story: P1 is deadlocked
// strictly, deadlock-free with lookahead budget 2, and still deadlocked
// with budget 1.
func TestSmokeFig5P1Lookahead(t *testing.T) {
	p := Fig5P1().Program
	if crossoff.Classify(p, crossoff.Options{}) {
		t.Fatal("P1 classified deadlock-free strictly")
	}
	if !crossoff.Classify(p, crossoff.Options{Lookahead: true, Budget: crossoff.UniformBudget(2)}) {
		t.Fatal("P1 not admitted with lookahead budget 2")
	}
	if crossoff.Classify(p, crossoff.Options{Lookahead: true, Budget: crossoff.UniformBudget(1)}) {
		t.Fatal("P1 admitted with lookahead budget 1")
	}
}

// TestSmokeMatMul runs the 2-D mesh workload end to end.
func TestSmokeMatMul(t *testing.T) {
	w, err := MatMul(MatMulOptions{Rows: 3, Inner: 4, Cols: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !crossoff.Classify(w.Program, crossoff.Options{}) {
		t.Fatal("matmul program not deadlock-free")
	}
	lab, err := label.Assign(w.Program, label.Options{})
	if err != nil {
		t.Fatalf("labeling: %v", err)
	}
	m, err := machine.Compile(w.Program, w.Topology, nil, lab.Dense)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run(machine.ExecOptions{
		QueuesPerLink: w.DefaultQueues,
		Capacity:      w.DefaultCapacity,
		Policy:        assign.Compatible(),
		Logic:         w.Logic,
	})
	if err != nil {
		t.Fatalf("sim: %v", err)
	}
	if !res.Completed {
		t.Fatalf("run %s: %s", res.Outcome(), machine.DescribeBlocked(w.Program, res.Blocked))
	}
	if err := w.CheckReceived(res.Received); err != nil {
		t.Fatal(err)
	}
}

// TestSmokeCompetingRoutes sanity-checks route computation for Fig 7.
func TestSmokeCompetingRoutes(t *testing.T) {
	w := Fig7(Fig7Options{})
	routes, err := topology.Routes(w.Program, w.Topology)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := w.Program.MessageByName("C")
	if len(routes[c.ID]) != 3 {
		t.Fatalf("message C crosses %d links, want 3", len(routes[c.ID]))
	}
	comp := topology.Competing(routes)
	// Link C3–C4 must carry both B and C.
	last := routes[c.ID][2].Link
	if got := len(comp[last]); got != 2 {
		t.Fatalf("link C3–C4 has %d competing messages, want 2", got)
	}
}
