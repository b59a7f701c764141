package diff

import (
	"fmt"
	"strings"
	"testing"

	"systolic/internal/core"
	"systolic/internal/fault"
	"systolic/internal/gen"
	"systolic/internal/linkmodel"
)

// capped makes every plan c sets also cap the run at one cycle, so the
// no-op plan diverges from the uncapped clean run and every stressed
// plan times out: the findings an engine bug would produce.
func capped[P fmt.Stringer](c condition[P]) condition[P] {
	set := c.set
	c.set = func(o *core.ExecOptions, p P) {
		set(o, p)
		o.MaxCycles = 1
	}
	return c
}

// TestConditionFindingText pins the text of the run-time condition
// findings, which only a broken engine ever prints.
func TestConditionFindingText(t *testing.T) {
	sc, err := gen.Generate(1, gen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := core.Analyze(sc.Program, sc.Topology, core.LookaheadOptions(0))
	if err != nil || !a.DeadlockFree {
		t.Fatalf("scenario not approved: %v", err)
	}
	var got []string
	res := &Result{}
	fail := func(f Finding) {
		f.Seed = sc.Seed
		got = append(got, f.String())
	}
	mustFault := func(spec string) *fault.Plan {
		p, err := fault.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	mustModel := func(spec string) *linkmodel.Plan {
		p, err := linkmodel.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	capped(faultCondition).check(sc, a, Options{}, res, fail,
		mustFault("cell:0:slow=1"), mustFault("cell:1:slow=3"))
	capped(linkModelCondition).check(sc, a, Options{}, res, fail,
		linkmodel.FixedPlan(1, 0), linkmodel.FixedPlan(3, 0), linkmodel.CongestionPlan(1, 2, 4))
	faultCondition.check(sc, a, Options{}, res, fail,
		mustFault("cell:0:slow=1"), mustFault("cell:99:slow=2"))
	linkModelCondition.check(sc, a, Options{}, res, fail,
		linkmodel.FixedPlan(1, 0), mustModel("fixed,delay=2,link:99:delay=3"))

	// A no-op plan the machine rejects changes the error outcome.
	faultCondition.check(sc, a, Options{}, res, fail, mustFault("cell:99:slow=1"))

	const cfg = "VIOLATION seed=1 invariant=%s policy=dynamic-compatible queues=1 (min 1) capacity=1: "
	want := []string{
		fmt.Sprintf(cfg, "fault-noop-equivalence") + "factor-1 plan diverged from fault-free run: timed-out vs completed after 1 vs 30 cycles",
		fmt.Sprintf(cfg, "degraded-completion") + "timed-out after 1 cycles under periodic plan cell:1:slow=3: no blocked cells recorded",
		fmt.Sprintf(cfg, "linkmodel-noop-equivalence") + "delay-1 plan diverged from unit-latency run: timed-out vs completed after 1 vs 30 cycles",
		fmt.Sprintf(cfg, "linkmodel-completion") + "timed-out after 1 cycles under model fixed,delay=3: no blocked cells recorded",
		fmt.Sprintf(cfg, "linkmodel-completion") + "timed-out after 1 cycles under model congestion,delay=1,threshold=2,max=4: no blocked cells recorded",
		fmt.Sprintf(cfg, "fault-exec-error") + "periodic plan cell:99:slow=2: machine: config Faults: cell 99 out of range (array has 6 cells)",
		fmt.Sprintf(cfg, "linkmodel-exec-error") + "model fixed,delay=2,link:99:delay=3: machine: config LinkModel: link model: link 99 out of range (topology has 7 links)",
		fmt.Sprintf(cfg, "fault-noop-equivalence") + "factor-1 plan changed the error outcome: machine: config Faults: cell 99 out of range (array has 6 cells) vs <nil>",
	}
	if len(got) != len(want) {
		t.Fatalf("%d findings, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("finding %d:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
	// Every run counts: the five clean runs and the two uncapped no-op
	// plans the machine accepts are the ones that complete.
	if res.Runs != 15 || res.Completed != 7 {
		t.Errorf("runs %d completed %d, want 15 and 7", res.Runs, res.Completed)
	}
}
