package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"systolic"
	"systolic/internal/core"
	"systolic/internal/model"
)

// sweep-grid: one op is the committed smoke grid (seven cases x 48
// points) followed by the topology-sensitivity grid (FFT on mesh,
// torus and hypercube x three link models, 36 points), both through
// systolic.Sweep with 2 workers and with the analyses included, as a
// user pays them. The grids are those of tools/sweeprun/testdata,
// rebuilt here so the benchmark reads nothing outside its directory.
// The seed sets the order of the cases (and so which worker gets which
// column) and the axes' policy seed; the points are the committed ones
// whatever the seed, so the work per op does not depend on it. Set-up
// runs each grid once through the per-point
// driver, and every op's report must equal that one — the
// batched-equals-per-point proof tools/sweeprun makes in CI, made on
// every op.

// grid is one Sweep call of the op.
type grid struct {
	cases []systolic.SweepCase
	axes  systolic.SweepAxes
	want  *systolic.SweepReport // the per-point driver's report
}

type sweepGrid struct {
	size     sizeClass
	opsRound int
	grids    []grid
}

func newSweepGrid(size sizeClass) workload {
	w := &sweepGrid{size: size, opsRound: 400}
	if size == tiny {
		w.opsRound = 2
	}
	return w
}

func (w *sweepGrid) ops() int        { return w.opsRound }
func (w *sweepGrid) prepare() error  { return nil }
func (w *sweepGrid) tearDown() error { w.grids = nil; return nil }

func (w *sweepGrid) setUp(seed int64, _ *recorder) error {
	fft, err := systolic.FFTGraph(systolic.FFTOptions{LogN: 3})
	if err != nil {
		return err
	}
	builds := []*scenario{
		scn("fig7", func() (*systolic.Workload, error) { return systolic.Fig7Workload(systolic.Fig7Options{}), nil }),
		scn("fig8", func() (*systolic.Workload, error) { return systolic.Fig8Workload(), nil }),
		scn("attention", func() (*systolic.Workload, error) {
			return systolic.AttentionGraph(systolic.AttentionOptions{Tokens: 6, Experts: 3})
		}),
		scn("stencil", func() (*systolic.Workload, error) {
			return systolic.StencilGraph(systolic.StencilOptions{Rows: 3, Cols: 3, Iters: 2})
		}),
		scn("fft", func() (*systolic.Workload, error) { return fft, nil }),
		scn("sortnet", func() (*systolic.Workload, error) {
			return systolic.PipelinedSortNetwork(systolic.PipelinedSortOptions{Width: 8, Rounds: 4})
		}),
		// One swap after construction: the committed grid keeps the
		// program whether or not it stays deadlock-free.
		scn("gen-23", func() (*systolic.Workload, error) {
			return genWorkload(23, systolic.GenOptions{Mutations: 1, Cyclic: true})
		}),
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(builds), func(i, j int) { builds[i], builds[j] = builds[j], builds[i] })
	var smoke []systolic.SweepCase
	for _, b := range builds {
		wl, err := b.build()
		if err != nil {
			return fmt.Errorf("%s: %w", b.name, err)
		}
		smoke = append(smoke, systolic.SweepCase{Name: b.name, Program: wl.Program, Topology: wl.Topology})
	}
	rehomed := []systolic.SweepCase{
		{Name: "fft@mesh", Program: fft.Program, Topology: systolic.Mesh(2, 4)},
		{Name: "fft@torus2d", Program: fft.Program, Topology: systolic.Torus(2, 4)},
		{Name: "fft@hypercube", Program: fft.Program, Topology: systolic.HypercubeTopology(3)},
	}
	rng.Shuffle(len(rehomed), func(i, j int) { rehomed[i], rehomed[j] = rehomed[j], rehomed[i] })
	three := []systolic.PolicyKind{systolic.NaiveFCFS, systolic.StaticAssignment, systolic.DynamicCompatible}
	w.grids = []grid{
		{cases: smoke, axes: systolic.SweepAxes{Policies: three, Queues: []int{0, 1, 2, 3}, Capacities: []int{1, 2}, Lookaheads: []int{0, 2}, Seed: seed}},
		{
			cases: rehomed,
			axes: systolic.SweepAxes{
				Policies: []systolic.PolicyKind{systolic.NaiveFCFS, systolic.DynamicCompatible}, Queues: []int{0, 2},
				Capacities: []int{1}, Lookaheads: []int{0},
				LinkModels: []string{"", "fixed,delay=3", "congestion,delay=1,threshold=2,max=4"}, Seed: seed,
			},
		},
	}
	for i := range w.grids {
		g := &w.grids[i]
		var err error
		if g.want, err = systolic.Sweep(context.Background(), g.cases, g.axes, w.options(*g, 1, true, nil, -1, -1)); err != nil {
			return fmt.Errorf("reference sweep: %w", err)
		}
	}
	return nil
}

func (w *sweepGrid) round(out []opResult, rec *recorder) {
	for i := range out {
		start := time.Now()
		id := rec.begin(spOp, -1, int32(i))
		w.op(&out[i], rec, id, int32(i))
		rec.end(id)
		out[i].lat = time.Since(start)
	}
}

func (w *sweepGrid) op(o *opResult, rec *recorder, parent, op int32) {
	o.digest = digestSeed
	for _, g := range w.grids {
		id := rec.begin(spSweep, parent, op)
		rep, err := systolic.Sweep(context.Background(), g.cases, g.axes, w.options(g, 2, false, rec, id, op))
		rec.end(id)
		if err != nil {
			o.attempted++
			o.fail(fmt.Errorf("sweep: %w", err), 1)
			continue
		}
		rec.add(cSweepPoints, int64(len(rep.Outcomes)))
		for i, out := range rep.Outcomes {
			o.attempted++
			if err := checkOutcome(out); err != nil {
				o.fail(err, 1)
			} else if out != g.want.Outcomes[i] {
				o.fail(fmt.Errorf("sweep point %d: batched driver %+v, per-point driver %+v", i, out, g.want.Outcomes[i]), 1)
			}
			if out.Result == "deadlocked" {
				rec.add(cSweepDeadlocks, 1)
			}
			o.digest = foldOutcome(o.digest, out.Result, out.Cycles, out.QueuesUsed, out.MaxQueueDepth)
			o.cycles += int64(out.Cycles)
		}
	}
}

// options builds one Sweep call's options. On the traced pass the
// engine's own analysis step is replaced, through the hook the serving
// layer uses, by the decomposed analysis with the same options, so the
// analysis layers show up inside the sweep span.
func (w *sweepGrid) options(g grid, workers int, perPoint bool, rec *recorder, parent, op int32) systolic.SweepOptions {
	opts := systolic.SweepOptions{Workers: workers, PerPoint: perPoint}
	if rec != nil {
		opts.Analysis = func(caseIdx, lookahead int) (*core.Analysis, error) {
			var aopts systolic.AnalyzeOptions
			if lookahead > 0 {
				aopts = systolic.AnalyzeOptions{Lookahead: true, BudgetOverride: func(model.MessageID) int { return lookahead }}
			}
			c := g.cases[caseIdx]
			return analyzeDecomposed(c.Program, c.Topology, aopts, rec, parent, op)
		}
	}
	return opts
}

// checkOutcome holds one grid point to what the paper promises:
// completion wherever Theorem 1 applies — a deadlock-free program
// under a compatible policy at the analysis' own queue budget, strict
// analysis (under lookahead the promise also needs rule R2's capacity,
// which the grid deliberately undercuts). Under-provisioned and naive
// points may deadlock or be refused; that is the grid's point, and
// their outcomes are pinned by the digest.
func checkOutcome(o systolic.SweepOutcome) error {
	promised := o.DeadlockFree && o.Queues == 0 && o.Lookahead == 0 &&
		(o.Policy == systolic.DynamicCompatible || o.Policy == systolic.StaticAssignment)
	if promised && o.Result != "completed" {
		return fmt.Errorf("sweep point %s/%s capacity %d: %s %s where Theorem 1 promises completion", o.CaseName, o.Policy, o.Capacity, o.Result, o.Err)
	}
	return nil
}

// foldOutcome folds one grid point's result column.
func foldOutcome(h uint64, result string, cycles, queues, depth int) uint64 {
	h = mixString(h, result)
	h = mix(h, uint64(cycles))
	h = mix(h, uint64(queues))
	return mix(h, uint64(depth))
}

// extras settles the sweep's two design questions on this grid: the
// per-point driver against the column-batched one, and 2 workers
// against 1.
func (w *sweepGrid) extras(lv layerValues, _ *recorder) error {
	run := func(workers int, perPoint bool) func() error {
		return func() error {
			for _, g := range w.grids {
				if _, err := systolic.Sweep(context.Background(), g.cases, g.axes, w.options(g, workers, perPoint, nil, -1, -1)); err != nil {
					return err
				}
			}
			return nil
		}
	}
	r, err := timeRatio(w.size, run(2, true), run(2, false))
	if err != nil {
		return err
	}
	lv["sweep.perpoint_vs_batched"] = r
	if r, err = timeRatio(w.size, run(2, false), run(1, false)); err != nil {
		return err
	}
	lv["sweep.workers2_vs_1"] = r
	return nil
}
