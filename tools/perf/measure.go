package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// The run shape shared by every workload: set-up (several times, the
// median is reported), one discarded warm-up round, then measured
// rounds of a fixed op count until the measuring time is spent. Each
// reported value is the median round; the min-max spread rides beside
// it. A round is sized to take about a second on a 2-core host.

// opResult is what one op leaves behind. Ops write only their own
// slot, so concurrent clients need no lock and the fold below is in
// schedule order whatever order the ops finished in.
type opResult struct {
	lat       time.Duration
	digest    uint64 // simulated statistics of everything the op ran
	cycles    int64  // simulated cycles completed
	attempted int32  // individually checked units (runs, requests, grid points)
	failed    int32
	class     uint8         // serving: request class, for per-class latencies
	first     time.Duration // streamed sweep: time to the first row
	err       error         // first failure, for the report
}

// workload is one set of inputs plus the op loop run against them.
type workload interface {
	// setUp derives every input from the seed and builds whatever the
	// workload holds warm. tearDown undoes it; setUp may then run again.
	setUp(seed int64, rec *recorder) error
	tearDown() error
	// ops is the fixed number of ops in one round.
	ops() int
	// prepare runs untimed before every round.
	prepare() error
	// round runs the op schedule once; op i reports into out[i].
	round(out []opResult, rec *recorder)
	// extras takes the layer measurements that need runs of their own
	// (ratios between two ways of doing the same work, whole-Analyze
	// time, allocations per run) and finishes the layer block.
	extras(lv layerValues, rec *recorder) error
}

// sizeClass scales a workload: full is what the benchmark measures,
// tiny keeps the package's own tests inside tier-1's time budget.
type sizeClass int

const (
	full sizeClass = iota
	tiny
)

func newWorkload(name string, size sizeClass) (workload, error) {
	switch name {
	case "cold-pipeline":
		return newColdPipeline(size), nil
	case "run-busy":
		return newRunBusy(size), nil
	case "run-sparse":
		return newRunSparse(size), nil
	case "sweep-grid":
		return newSweepGrid(size), nil
	case "serve-hit":
		return newServeHit(size), nil
	case "serve-cold":
		return newServeCold(size), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames(), ", "))
}

// passConfig is one pass over one workload.
type passConfig struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	size     sizeClass
	traceOut string // traced pass: where to write the spans ("" = nowhere)
}

// value is one reported number with the rounds behind it.
type value struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Rounds []float64 `json:"rounds,omitempty"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
}

// layerValues is the layer block under construction.
type layerValues map[string]float64

// passResult is everything one pass reports.
type passResult struct {
	Workload    string           `json:"workload"`
	Seed        int64            `json:"seed"`
	Traced      bool             `json:"traced,omitempty"`
	OpsPerRound int              `json:"ops_per_round"`
	Rounds      int              `json:"rounds"`
	Attempted   int64            `json:"attempted"`
	Failed      int64            `json:"failed"`
	Correct     bool             `json:"correct"`
	Problems    []string         `json:"problems,omitempty"`
	SimDigest   string           `json:"sim_digest"`
	EndToEnd    map[string]value `json:"end_to_end,omitempty"`
	PerLayer    layerValues      `json:"per_layer,omitempty"`
}

// roundStats is one measured round.
type roundStats struct {
	wall      time.Duration
	cpu       time.Duration
	mallocs   uint64
	bytes     uint64
	cycles    int64
	attempted int64
	failed    int64
	digest    uint64
}

// pass holds the state of one run of runPass.
type pass struct {
	w        workload
	out      []opResult
	res      *passResult
	lat      []time.Duration             // pooled op latencies of the measured rounds
	classLat [numClasses][]time.Duration // per request class, traced rounds
	firstRow []time.Duration             // streamed sweeps, traced rounds
	digest   uint64
	haveDig  bool
}

func (p *pass) problem(format string, args ...any) {
	p.res.Correct = false
	if len(p.res.Problems) < 8 {
		p.res.Problems = append(p.res.Problems, fmt.Sprintf(format, args...))
	}
}

// measureRound runs one round and folds what its ops left behind.
// keep says whether the round is measured (false for warm-up).
func (p *pass) measureRound(rec *recorder, keep bool) (roundStats, error) {
	if err := p.w.prepare(); err != nil {
		return roundStats{}, fmt.Errorf("prepare round: %w", err)
	}
	for i := range p.out {
		p.out[i] = opResult{}
	}
	settleHeap()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	start := time.Now()
	p.w.round(p.out, rec)
	wall := time.Since(start)
	cpu1 := cpuTime()
	runtime.ReadMemStats(&m1)

	rs := roundStats{wall: wall, cpu: cpu1 - cpu0, mallocs: m1.Mallocs - m0.Mallocs, bytes: m1.TotalAlloc - m0.TotalAlloc, digest: digestSeed}
	for i := range p.out {
		o := &p.out[i]
		rs.cycles += o.cycles
		rs.attempted += int64(o.attempted)
		rs.failed += int64(o.failed)
		rs.digest = mix(rs.digest, o.digest)
		if o.err != nil {
			p.problem("op %d: %v", i, o.err)
		}
		if keep && rec == nil {
			p.lat = append(p.lat, o.lat)
		}
		if keep && rec != nil {
			p.classLat[o.class] = append(p.classLat[o.class], o.lat)
			if o.class == clsSweepStream {
				p.firstRow = append(p.firstRow, o.first)
			}
		}
	}
	if !p.haveDig {
		p.digest, p.haveDig = rs.digest, true
	} else if rs.digest != p.digest {
		p.problem("sim_digest moved between rounds: %016x then %016x", p.digest, rs.digest)
	}
	if keep {
		p.res.Attempted += rs.attempted
		p.res.Failed += rs.failed
		p.res.Rounds++
	} else if rs.failed > 0 {
		p.problem("%d of %d checks failed in the warm-up round", rs.failed, rs.attempted)
	}
	return rs, nil
}

// settleHeap puts the heap in the same state before every round and
// every set-up: garbage collected, so one round's is not charged to the
// next, and sync.Pools emptied. A pooled object survives one GC cycle
// in the pool's victim cache and is dropped by the second; collecting
// twice means every round refills the program's pools exactly once,
// where a single collection left that to whether a natural cycle
// happened to follow — and allocs_per_op flipping between two values.
func settleHeap() {
	runtime.GC()
	runtime.GC()
}

// minRounds is the fewest measured rounds a median is taken over.
const minRounds = 3

// runPass runs one workload once, untraced (end-to-end metrics) or
// traced (per-layer metrics).
func runPass(cfg passConfig) (*passResult, error) {
	w, err := newWorkload(cfg.workload, cfg.size)
	if err != nil {
		return nil, err
	}
	p := &pass{w: w, res: &passResult{Workload: cfg.workload, Seed: cfg.seed, Traced: cfg.traced, Correct: true}}
	var rec *recorder
	if cfg.traced {
		rec = newRecorder()
	}

	// Set-up, several times: its median is the reported setup_s, and
	// the last one stays up for the rounds. A set-up of milliseconds
	// (serve-hit, sweep-grid) is the noisiest thing timed here, so cheap
	// ones repeat until they have had a second between them.
	minSetups, maxSetups := 3, 15
	if cfg.size == tiny {
		minSetups, maxSetups = 1, 1
	}
	rec.setPhase(phSetup)
	var setupS []float64
	var setupTotal time.Duration
	for i := 0; i < minSetups || (i < maxSetups && setupTotal < time.Second); i++ {
		if i > 0 {
			if err := w.tearDown(); err != nil {
				return nil, fmt.Errorf("tear down: %w", err)
			}
		}
		settleHeap()
		start := time.Now()
		if err := w.setUp(cfg.seed, rec); err != nil {
			return nil, fmt.Errorf("set up: %w", err)
		}
		d := time.Since(start)
		setupTotal += d
		setupS = append(setupS, d.Seconds())
	}
	p.res.OpsPerRound = w.ops()
	p.out = make([]opResult, w.ops())

	rec.setPhase(phRound)
	if _, err := p.measureRound(nil, false); err != nil { // warm-up, discarded
		return nil, err
	}
	budget := time.Duration(cfg.seconds * float64(time.Second))
	var untraced, traced []roundStats
	if !cfg.traced {
		start := time.Now()
		for len(untraced) < minRounds || time.Since(start) < budget {
			rs, err := p.measureRound(nil, true)
			if err != nil {
				return nil, err
			}
			untraced = append(untraced, rs)
		}
		rss := peakRSSMB()
		allocs, bytes, err := p.countAllocations()
		if err != nil {
			return nil, err
		}
		p.res.EndToEnd = p.endToEnd(setupS, untraced, rss, allocs, bytes)
	} else {
		// Untraced and traced rounds alternate, so drift in the host
		// lands on both sides of the overhead ratio. The rest of the
		// measuring time is left to the extras.
		start := time.Now()
		for len(traced) < 2 || time.Since(start) < budget/2 {
			ru, err := p.measureRound(nil, true)
			if err != nil {
				return nil, err
			}
			rt, err := p.measureRound(rec, true)
			if err != nil {
				return nil, err
			}
			untraced, traced = append(untraced, ru), append(traced, rt)
		}
		lv := p.layers(rec, len(setupS), untraced, traced)
		rec.setPhase(phExtras)
		if err := w.extras(lv, rec); err != nil {
			return nil, fmt.Errorf("extras: %w", err)
		}
		for _, m := range layerTable {
			if _, ok := lv[m.Name]; !ok {
				lv[m.Name] = 0 // a layer this workload does not reach
			}
		}
		p.res.PerLayer = lv
	}
	if err := w.tearDown(); err != nil {
		return nil, fmt.Errorf("tear down: %w", err)
	}

	p.res.SimDigest = fmt.Sprintf("%016x", p.digest)
	if p.res.Failed > 0 {
		p.problem("%d of %d checks failed", p.res.Failed, p.res.Attempted)
	}
	if cfg.size == full && cfg.seed == 1 {
		if want := committedDigests()[cfg.workload]; want != p.res.SimDigest {
			p.problem("sim_digest %s differs from the committed %q for seed 1", p.res.SimDigest, want)
		}
	}
	if rec != nil && cfg.traceOut != "" {
		if err := rec.writeTrace(cfg.traceOut, cfg.workload, cfg.seed); err != nil {
			return nil, err
		}
	}
	return p.res, nil
}

// countAllocations counts what an op allocates, exactly. Over a timed
// round the count is not exact: the program pools its execution
// contexts in sync.Pools, whose caches are per P and which a GC cycle
// empties in two steps, so whether a context is rebuilt (thousands of
// allocations) depends on where the cycle falls and which P the
// goroutine sits on. On one P a pooled object is always found again,
// so a round is run twice on one P — once to fill the pools, once
// counted — and that count repeats run to run, which is what lets
// allocs_per_op gate at 5 %. Nothing is timed here.
func (p *pass) countAllocations() (allocsPerOp, bytesPerOp float64, err error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m0, m1 runtime.MemStats
	for turn := 0; turn < 2; turn++ {
		if err := p.w.prepare(); err != nil {
			return 0, 0, fmt.Errorf("prepare round: %w", err)
		}
		for i := range p.out {
			p.out[i] = opResult{}
		}
		runtime.ReadMemStats(&m0)
		p.w.round(p.out, nil)
		runtime.ReadMemStats(&m1)
		for i := range p.out {
			if p.out[i].err != nil {
				p.problem("allocation count, op %d: %v", i, p.out[i].err)
			}
		}
	}
	n := float64(len(p.out))
	return float64(m1.Mallocs-m0.Mallocs) / n, float64(m1.TotalAlloc-m0.TotalAlloc) / n, nil
}

// endToEnd reduces the measured rounds to the end-to-end metrics.
func (p *pass) endToEnd(setupS []float64, rounds []roundStats, rss, allocsPerOp, bytesPerOp float64) map[string]value {
	n := float64(p.w.ops())
	per := func(f func(roundStats) float64) []float64 {
		vs := make([]float64, len(rounds))
		for i, rs := range rounds {
			vs[i] = f(rs)
		}
		return vs
	}
	// The measured rounds' latencies sit in p.lat round after round.
	roundP50 := make([]float64, len(rounds))
	for i := range rounds {
		roundP50[i] = percentile(durationsMS(p.lat[i*p.w.ops():(i+1)*p.w.ops()]), 50)
	}
	series := map[string][]float64{
		"setup_s":          setupS,
		"op_p50_ms":        roundP50,
		"ops_per_s":        per(func(rs roundStats) float64 { return n / rs.wall.Seconds() }),
		"sim_cycles_per_s": per(func(rs roundStats) float64 { return float64(rs.cycles) / rs.wall.Seconds() }),
		"cpu_ms_per_op":    per(func(rs roundStats) float64 { return float64(rs.cpu) / float64(time.Millisecond) / n }),
		"allocs_per_op":    per(func(rs roundStats) float64 { return float64(rs.mallocs) / n }),
		"bytes_per_op":     per(func(rs roundStats) float64 { return float64(rs.bytes) / n }),
	}
	out := make(map[string]value, len(endToEndTable))
	for _, m := range endToEndTable {
		switch m.Name {
		case "peak_rss_mb":
			out[m.Name] = value{Value: rss, Unit: m.Unit, Min: rss, Max: rss}
		case "allocs_per_op":
			// The exact count; the timed rounds' noisier ones ride along.
			out[m.Name] = value{Value: allocsPerOp, Unit: m.Unit, Rounds: series[m.Name], Min: allocsPerOp, Max: allocsPerOp}
		case "bytes_per_op":
			out[m.Name] = value{Value: bytesPerOp, Unit: m.Unit, Rounds: series[m.Name], Min: bytesPerOp, Max: bytesPerOp}
		default:
			vs := series[m.Name]
			sorted := append([]float64(nil), vs...)
			sort.Float64s(sorted)
			v := value{Value: percentile(sorted, 50), Unit: m.Unit, Rounds: vs, Min: sorted[0], Max: sorted[len(sorted)-1]}
			if m.Name == "op_p50_ms" {
				// The median of all measured ops pooled; the rounds'
				// own medians give the spread.
				v.Value = percentile(durationsMS(p.lat), 50)
			}
			out[m.Name] = v
		}
	}
	return out
}

// layers derives the layer block from the traced rounds' spans and
// counts. A layer the rounds never reach but set-up does (the analysis
// layers of the run-* workloads) is reported per set-up instead of per
// op.
func (p *pass) layers(rec *recorder, setups int, untraced, traced []roundStats) layerValues {
	lv := layerValues{}
	tot := rec.totals()
	ops := float64(len(traced) * p.w.ops())
	// timeOf and countOf pick the phase the layer ran in and return the
	// total and the number of units (ops or set-ups) it is spread over.
	timeOf := func(name spanName) (ns float64, units float64) {
		if tot.n[phRound][name] > 0 {
			return float64(tot.ns[phRound][name]), ops
		}
		return float64(tot.ns[phSetup][name]), float64(setups)
	}
	countOf := func(c counter) (n float64, units float64) {
		if v := rec.count(phRound, c); v != 0 {
			return float64(v), ops
		}
		return float64(rec.count(phSetup, c)), float64(setups)
	}
	ms := func(name spanName) float64 {
		ns, units := timeOf(name)
		return ns / 1e6 / units
	}
	perUnit := func(c counter) float64 {
		n, units := countOf(c)
		return n / units
	}
	ratio := func(num, den float64) float64 {
		if den == 0 {
			return 0
		}
		return num / den
	}

	lv["dsl.parse_ms"] = ms(spParse)
	parseNS, _ := timeOf(spParse)
	parseBytes, _ := countOf(cParseBytes)
	lv["dsl.parse_mb_per_s"] = ratio(parseBytes/1e6, parseNS/1e9)
	lv["dsl.format_ms"] = ms(spFormat)
	lv["topology.routes_ms"] = ms(spRoutes)
	lv["topology.hops"] = perUnit(cHops)
	lv["crossoff.run_ms"] = ms(spCrossoff)
	crossNS, _ := timeOf(spCrossoff)
	crossOps, _ := countOf(cCrossOps)
	lv["crossoff.ns_per_op"] = ratio(crossNS, crossOps)
	lv["crossoff.pairs"] = perUnit(cPairs)
	lv["label.assign_ms"] = ms(spLabelAssign)
	labelNS, _ := timeOf(spLabelAssign)
	messages, _ := countOf(cMessages)
	lv["label.us_per_message"] = ratio(labelNS/1e3, messages)
	lv["label.check_ms"] = ms(spLabelCheck)
	lv["verify.preconditions_ms"] = ms(spVerify)
	lv["machine.compile_ms"] = ms(spCompile)

	lv["machine.run_ms"] = ms(spRun)
	runNS, _ := timeOf(spRun)
	cycles, _ := countOf(cCycles)
	cellCycles, _ := countOf(cCellCycles)
	words, _ := countOf(cWords)
	programOps, _ := countOf(cProgramOps)
	lv["machine.ns_per_sim_cycle"] = ratio(runNS, cycles)
	lv["machine.ns_per_cell_cycle"] = ratio(runNS, cellCycles)
	lv["machine.ns_per_word_moved"] = ratio(runNS, words)
	lv["machine.active_ratio"] = ratio(programOps, cellCycles)
	lv["machine.words_moved"] = perUnit(cWords)
	lv["machine.grants"] = perUnit(cGrants)
	lv["machine.gated_ops"] = perUnit(cGated)
	// Cycles come from the ops themselves, so workloads that only see
	// the wire (serving) or a report (sweep) have them too.
	var roundCycles int64
	for _, rs := range traced {
		roundCycles += rs.cycles
	}
	lv["machine.sim_cycles"] = float64(roundCycles) / ops

	sweepNS, _ := timeOf(spSweep)
	points, _ := countOf(cSweepPoints)
	lv["sweep.us_per_point"] = ratio(sweepNS/1e3, points)
	lv["sweep.points"] = perUnit(cSweepPoints)
	lv["sweep.deadlocks"] = perUnit(cSweepDeadlocks)
	analysisNS := float64(tot.ns[phRound][spRoutes] + tot.ns[phRound][spCrossoff] + tot.ns[phRound][spLabelAssign] +
		tot.ns[phRound][spLabelCheck] + tot.ns[phRound][spVerify])
	lv["sweep.analyze_share"] = ratio(analysisNS, float64(tot.ns[phRound][spSweep]))

	// Serving: per-class client latencies, and the request split into
	// the handler's span and what is left for the wire (kernel TCP,
	// net/http on both ends, client-side encoding).
	classMS := func(class uint8) []float64 { return durationsMS(p.classLat[class]) }
	hit := classMS(clsRunHit)
	lv["server.run_hit.p50_us"] = 1e3 * percentile(hit, 50)
	lv["server.run_hit.tail_us"] = 1e3 * percentile(hit, tailPercentile(len(hit)))
	lv["server.analyze_hit.p50_us"] = 1e3 * percentile(classMS(clsAnalyzeHit), 50)
	miss := classMS(clsRunMiss)
	lv["server.run_miss.p50_ms"] = percentile(miss, 50)
	lv["server.run_miss.tail_ms"] = percentile(miss, tailPercentile(len(miss)))
	lv["server.run_canon.p50_ms"] = percentile(classMS(clsRunCanon), 50)
	lv["server.sweep_stream.p50_ms"] = percentile(classMS(clsSweepStream), 50)
	lv["server.sweep_stream.first_row_ms"] = percentile(durationsMS(p.firstRow), 50)
	lv["server.sweep_buffered.p50_ms"] = percentile(classMS(clsSweepBuffered), 50)
	var handler, wire []time.Duration
	spans := rec.recorded()
	for _, s := range spans {
		if s.name != spHandler || s.parent < 0 || s.end < s.start {
			continue
		}
		client := spans[s.parent]
		handler = append(handler, time.Duration(s.end-s.start))
		wire = append(wire, time.Duration((client.end-client.start)-(s.end-s.start)))
	}
	lv["server.handler_p50_us"] = 1e3 * percentile(durationsMS(handler), 50)
	lv["server.wire_p50_us"] = 1e3 * percentile(durationsMS(wire), 50)
	lv["server.resp_bytes_per_op"] = perUnit(cRespBytes)

	// Harness block: what qualifies the numbers above. Tail latency is
	// here, not end to end: it moves several-fold between identical
	// runs, so it cannot gate.
	lat := durationsMS(p.lat)
	pct := tailPercentile(len(lat))
	lv["harness.op_tail_ms"] = percentile(lat, pct)
	lv["harness.op_tail_pct"] = pct
	lv["harness.op_samples"] = float64(len(lat))
	rate := func(rounds []roundStats) []float64 {
		vs := make([]float64, len(rounds))
		for i, rs := range rounds {
			vs[i] = float64(p.w.ops()) / rs.wall.Seconds()
		}
		sort.Float64s(vs)
		return vs
	}
	u, t := rate(untraced), rate(traced)
	lv["harness.round_spread"] = (u[len(u)-1] - u[0]) / percentile(u, 50)
	lv["harness.trace_overhead"] = percentile(u, 50) / percentile(t, 50)
	return lv
}

// percentile reads the pct-th percentile of sorted values (nearest
// rank). An empty sample reads 0.
func percentile(sorted []float64, pct float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(len(sorted))*pct/100+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailPercentile is the highest percentile that still has at least ten
// samples beyond it: whole percents up to 99, then 99.9 and 99.99.
// Thirty samples support p66, a hundred p90, a thousand p99. Fewer
// than twenty support nothing past the median.
func tailPercentile(n int) float64 {
	if n < 20 {
		return 50
	}
	share := 1 - 10/float64(n)
	switch {
	case share >= 0.9999:
		return 99.99
	case share >= 0.999:
		return 99.9
	}
	// The epsilon keeps 1-10/1000 = 0.99 from flooring to 98.
	return float64(int(share*100 + 1e-9))
}

// durationsMS sorts a latency sample into milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
