package core

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"systolic/internal/crossoff"
	"systolic/internal/gen"
	"systolic/internal/label"
	"systolic/internal/model"
	"systolic/internal/rational"
	"systolic/internal/topology"
	"systolic/internal/workload"
)

// poolCall is one analysis call whose passes borrow the process-wide
// crossing-off, labeling and Theorem 1 pools, and what it returned.
type poolCall struct {
	name      string
	lookahead bool
	run       func() poolResult
}

type poolResult struct {
	analysis analysisView
	order    crossoff.Result // crossoff.Run
	verdict  crossoff.Result // label.Run's pass
	labeling label.Labeling  // label.Run's labeling
}

// analysisView is what an Analysis returns, its tables shared with it.
type analysisView struct {
	Routes                            [][]topology.Hop
	DeadlockFree, Strict              bool
	Blocked                           []crossoff.BlockedOp
	Labeling                          label.Labeling
	MinQueuesDynamic, MinQueuesStatic int
}

func view(a *Analysis) analysisView {
	return analysisView{a.Routes, a.DeadlockFree, a.Strict, a.Blocked, a.Labeling, a.MinQueuesDynamic, a.MinQueuesStatic}
}

// clone copies every table of r a caller may write to, so that a copy
// taken when r was made shows whether r changed later.
func (r poolResult) clone() poolResult {
	a := r.analysis
	a.Blocked = slices.Clone(a.Blocked)
	a.Labeling = cloneLabeling(a.Labeling)
	out := poolResult{analysis: a, order: r.order, verdict: r.verdict, labeling: cloneLabeling(r.labeling)}
	out.order.Blocked = slices.Clone(r.order.Blocked)
	out.order.Order = slices.Clone(r.order.Order)
	for i := range out.order.Order {
		out.order.Order[i].Skipped = slices.Clone(out.order.Order[i].Skipped)
	}
	out.verdict.Blocked = slices.Clone(r.verdict.Blocked)
	return out
}

func cloneLabeling(l label.Labeling) label.Labeling {
	return label.Labeling{ByMessage: slices.Clone(l.ByMessage), Dense: slices.Clone(l.Dense), Warnings: slices.Clone(l.Warnings)}
}

// scribble overwrites every table of r a caller may write to.
func (r poolResult) scribble() {
	for _, l := range []label.Labeling{r.analysis.Labeling, r.labeling} {
		for i := range l.ByMessage {
			l.ByMessage[i] = rational.FromInt(-7)
		}
		for i := range l.Dense {
			l.Dense[i] = -7
		}
		for i := range l.Warnings {
			l.Warnings[i] = "scribbled"
		}
	}
	for _, b := range [][]crossoff.BlockedOp{r.analysis.Blocked, r.order.Blocked, r.verdict.Blocked} {
		for i := range b {
			b[i] = crossoff.BlockedOp{Cell: -1, Idx: -1}
		}
	}
	for i := range r.order.Order {
		pr := &r.order.Order[i]
		for j := range pr.Skipped {
			pr.Skipped[j] = crossoff.Skip{Cell: -1, Idx: -1, Msg: -1}
		}
		pr.Msg, pr.WriteIdx, pr.ReadIdx = -1, -1, -1
	}
}

// poolCalls mixes what the pools must serve in any order: programs
// that grow and shrink (pipesort at widths 8, 16 and 2 000, Figs 7–9,
// cold-pipeline's generated recipe), deadlocked ones (mutated
// generated programs, and §8's P1 under the strict rules), strict and
// lookahead budgets, the default picker and ByFewestSkips, and greedy
// and fallback labelings.
func poolCalls(t *testing.T) []poolCall {
	t.Helper()
	type scenario struct {
		name string
		p    *model.Program
		topo topology.Topology
	}
	var scenarios []scenario
	add := func(name string, w *workload.Workload, err error) {
		if err != nil {
			t.Fatal(err)
		}
		scenarios = append(scenarios, scenario{name, w.Program, w.Topology})
	}
	for _, width := range []int{8, 2000, 16} {
		w, err := workload.PipelinedSort(workload.PipelinedSortOptions{Width: width, Rounds: 4})
		add(fmt.Sprintf("pipesort-%d", width), w, err)
	}
	add("fig7", workload.Fig7(workload.Fig7Options{}), nil)
	add("fig8", workload.Fig8(), nil)
	add("fig9", workload.Fig9(), nil)
	add("p1", workload.Fig5P1(), nil)
	// Seeds 2 and 8 mutated deadlock under lookahead too.
	for _, g := range []struct{ seed, mutations int }{{1, 0}, {2, 0}, {5, 24}, {2, 32}, {8, 64}} {
		sc, err := gen.Generate(int64(g.seed), gen.Options{Cells: 32, Messages: 64, MaxWords: 4, Interleave: 4, Cyclic: true, Topology: gen.TopoMesh, Mutations: g.mutations})
		if err != nil {
			t.Fatal(err)
		}
		scenarios = append(scenarios, scenario{fmt.Sprintf("gen-%d-mut%d", g.seed, g.mutations), sc.Program, sc.Topology})
	}
	optionSets := []struct {
		name string
		opts AnalyzeOptions
	}{
		{"strict", AnalyzeOptions{}},
		{"strict, fewest skips", AnalyzeOptions{Picker: crossoff.ByFewestSkips}},
		{"lookahead 1", AnalyzeOptions{Lookahead: true, Capacity: 1}},
		{"lookahead 2", AnalyzeOptions{Lookahead: true, Capacity: 2}},
		{"lookahead 2, fewest skips", AnalyzeOptions{Lookahead: true, Capacity: 2, Picker: crossoff.ByFewestSkips}},
	}
	var calls []poolCall
	for _, sc := range scenarios {
		routes, err := topology.Routes(sc.p, sc.topo)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range optionSets {
			if sc.p.NumMessages() > 1000 && (o.opts.Picker != nil || o.opts.Capacity == 1) {
				continue // the large program grows the tables; two passes over it do
			}
			sc, opts := sc, o.opts
			var budget func(model.MessageID) int
			if opts.Lookahead {
				budget = crossoff.BudgetFromRoutes(routes, opts.Capacity)
			}
			calls = append(calls, poolCall{sc.name + ", " + o.name, opts.Lookahead, func() poolResult {
				a, err := Analyze(sc.p, sc.topo, opts)
				if err != nil {
					panic(err)
				}
				verdict, lab := label.Run(sc.p, label.Options{Lookahead: opts.Lookahead, Budget: budget, Picker: opts.Picker})
				return poolResult{
					analysis: view(a),
					order:    crossoff.Run(sc.p, crossoff.Options{Lookahead: opts.Lookahead, Budget: budget, Picker: opts.Picker}),
					verdict:  verdict,
					labeling: lab,
				}
			}})
		}
	}
	return calls
}

// TestPooledAnalysisReuse: every analysis pass borrows its tables from
// a process-wide pool, so a pass must leave nothing behind that the
// next one reads, and a result must share nothing with the pool. Each
// call is first made on its own, with the pools emptied by two
// collections, and copied; then the whole sequence is replayed in one
// goroutine, then from 4 at once, each in its own order, scribbling
// over every table each result returned. Every replayed result must
// equal its call's first, and no first result may change.
func TestPooledAnalysisReuse(t *testing.T) {
	calls := poolCalls(t)
	want := make([]poolResult, len(calls))
	kept := make([]poolResult, len(calls))
	seen := map[string]int{}
	for i, c := range calls {
		runtime.GC()
		runtime.GC()
		kept[i] = c.run()
		want[i] = kept[i].clone()
		a := want[i].analysis
		switch {
		case !a.DeadlockFree && c.lookahead:
			seen["deadlocked under lookahead"]++
		case !a.DeadlockFree:
			seen["deadlocked"]++
		case len(a.Labeling.Warnings) > 0:
			seen["fallback"]++
		default:
			seen["greedy"]++
		}
	}
	t.Logf("%d calls: %v", len(calls), seen)
	if len(seen) < 4 {
		t.Fatalf("the calls do not mix strict and lookahead deadlocks, fallback and greedy analyses: %v", seen)
	}
	replay := func(start, step int) error {
		for k := range calls {
			i := (start + k*step) % len(calls)
			got := calls[i].run()
			if !reflect.DeepEqual(got.clone(), want[i]) {
				return fmt.Errorf("%s: replayed result differs from the call made on its own", calls[i].name)
			}
			got.scribble()
		}
		return nil
	}
	// Steps coprime to the call count visit every call once, in an
	// order that jumps between large and small programs.
	steps := []int{1}
	for s := 2; len(steps) < 5; s++ {
		if gcd(s, len(calls)) == 1 {
			steps = append(steps, s)
		}
	}
	if err := replay(0, steps[0]); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[g] = replay(g*len(calls)/4, steps[g+1])
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
	for i := range calls {
		if !reflect.DeepEqual(kept[i].clone(), want[i]) {
			t.Errorf("%s: a later pass changed the result the first call returned", calls[i].name)
		}
	}
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
