package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"systolic"
	"systolic/internal/machine"
	"systolic/internal/server"
)

// The two serving workloads drive systolic.NewServeHandler behind a
// real loopback TCP listener. The load is a closed loop of 2 clients
// on 2 keep-alive connections pulling ops off one seeded schedule: the
// daemon's callers are scripts and CI jobs that wait for each reply,
// and 2 is this host's core count. Every reply is checked field by
// field against an in-process systolic.Execute (or Sweep) of the same
// request, made at set-up.

const clients = 2

// Request classes, for the per-class latencies of the layer block.
// Class 0 is an op of a library workload.
const (
	clsRunHit uint8 = iota + 1
	clsAnalyzeHit
	clsRunMiss
	clsRunCanon
	clsSweepStream
	clsSweepBuffered
	numClasses
)

// spanHeader carries "<client span>,<op>" on traced rounds, so the
// middleware's span names its parent.
const spanHeader = "X-Perf-Span"

// daemon is the listener under test plus the harness's own middleware
// and client.
type daemon struct {
	handler atomic.Pointer[http.Handler] // serve-cold swaps in an empty daemon per round
	rec     *recorder
	tagged  atomic.Int64 // traced requests still inside ServeHTTP
	srv     *http.Server
	served  chan error
	url     string
	client  *http.Client
}

func (d *daemon) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	h := *d.handler.Load()
	tag := r.Header.Get(spanHeader)
	if tag == "" {
		h.ServeHTTP(w, r)
		return
	}
	parent, op := int64(-1), int64(-1)
	if a, b, ok := strings.Cut(tag, ","); ok {
		parent, _ = strconv.ParseInt(a, 10, 32)
		op, _ = strconv.ParseInt(b, 10, 32)
	}
	d.tagged.Add(1)
	id := d.rec.begin(spHandler, int32(parent), int32(op))
	h.ServeHTTP(w, r)
	d.rec.end(id)
	d.tagged.Add(-1)
}

// quiesce waits until every traced request has closed its handler
// span: a client has its whole reply a moment before the handler's
// goroutine returns.
func (d *daemon) quiesce() {
	for d.tagged.Load() != 0 {
		runtime.Gosched()
	}
}

// boot starts the listener around a fresh daemon.
func boot(opts systolic.ServeOptions, rec *recorder) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	d := &daemon{rec: rec, served: make(chan error, 1), url: "http://" + ln.Addr().String()}
	d.reset(opts)
	d.srv = &http.Server{Handler: d}
	go func() { d.served <- d.srv.Serve(ln) }()
	d.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients, DisableCompression: true}}
	return d, nil
}

// reset replaces the daemon behind the listener with an empty one.
func (d *daemon) reset(opts systolic.ServeOptions) {
	h := systolic.NewServeHandler(opts)
	d.handler.Store(&h)
}

// stop shuts the listener down and waits for its goroutine.
func (d *daemon) stop() error {
	d.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := d.srv.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-d.served; err != http.ErrServerClosed {
		return fmt.Errorf("serve: %w", err)
	}
	return nil
}

// stats reads GET /v1/stats.
func (d *daemon) stats() (systolic.ServeStats, error) {
	var st systolic.ServeStats
	resp, err := d.client.Get(d.url + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("decode stats: %w", err)
	}
	return st, nil
}

// request is one op of a serving schedule with the reply it must get.
type request struct {
	class uint8
	path  string
	body  []byte
	// Exactly one of these is set: the wire fields an in-process run of
	// the same request produces.
	run     *server.RunResponse
	analyze *server.AnalyzeResponse
	sweep   []server.SweepOutcome
	cached  bool   // what the reply's "cached" must say (hits and sweeps)
	digest  uint64 // the expected reply's simulated statistics
	cycles  int64
	// bare repeats the request's simulation in process, for
	// server.overhead_vs_bare.
	bare func() error
}

// conn is one client's reusable state.
type conn struct {
	d   *daemon
	buf bytes.Buffer
}

// do sends one request and checks the reply, filling o.
func (c *conn) do(rq *request, o *opResult, rec *recorder, op int32) {
	o.class, o.attempted = rq.class, 1
	start := time.Now()
	id := rec.begin(spClient, -1, op)
	first, err := c.exchange(rq, id, op)
	rec.end(id)
	o.lat = time.Since(start)
	o.first = first
	size := c.buf.Len()
	if err == nil {
		err = c.check(rq)
	}
	if err != nil {
		o.fail(fmt.Errorf("%s: %w", rq.path, err), 1)
		return
	}
	rec.add(cRespBytes, int64(size))
	o.digest, o.cycles = rq.digest, rq.cycles
}

// exchange posts the request and reads the whole reply into c.buf. For
// a streamed sweep it also reports when the first row arrived.
func (c *conn) exchange(rq *request, span, op int32) (first time.Duration, err error) {
	hr, err := http.NewRequest(http.MethodPost, c.d.url+rq.path, bytes.NewReader(rq.body))
	if err != nil {
		return 0, err
	}
	hr.Header.Set("Content-Type", "application/json")
	if span >= 0 {
		hr.Header.Set(spanHeader, strconv.Itoa(int(span))+","+strconv.Itoa(int(op)))
	}
	start := time.Now()
	resp, err := c.d.client.Do(hr)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if rq.class == clsSweepStream {
		br := bufio.NewReader(resp.Body)
		row, rerr := br.ReadBytes('\n')
		first = time.Since(start)
		c.buf.Write(row)
		if rerr == nil {
			_, rerr = c.buf.ReadFrom(br)
		}
		if rerr != nil && rerr != io.EOF {
			return first, rerr
		}
	} else if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		// A refusal of any kind — 429 included — is a failed op.
		return first, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(c.buf.Bytes()))
	}
	return first, nil
}

// check compares the reply in c.buf with the request's expectation.
func (c *conn) check(rq *request) error {
	switch {
	case rq.run != nil:
		var got server.RunResponse
		if err := json.Unmarshal(c.buf.Bytes(), &got); err != nil {
			return fmt.Errorf("decode: %w", err)
		}
		want := *rq.run
		want.ID, want.Cached = got.ID, rq.cached
		if rq.class == clsRunMiss || rq.class == clsRunCanon {
			// With two clients a repeat can overtake its original, and
			// then it is the one that compiles. Which of the two says
			// "cached" is free; that exactly one does is pinned by the
			// cache counters, which must repeat exactly.
			want.Cached = got.Cached
		}
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("reply %+v, in-process run gives %+v", got, want)
		}
	case rq.analyze != nil:
		var got server.AnalyzeResponse
		if err := json.Unmarshal(c.buf.Bytes(), &got); err != nil {
			return fmt.Errorf("decode: %w", err)
		}
		want := *rq.analyze
		want.ID, want.Cached = got.ID, rq.cached
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("reply %+v, in-process analysis gives %+v", got, want)
		}
	case rq.class == clsSweepStream:
		var rows []server.SweepOutcome
		var sum server.SweepStreamSummary
		dec := json.NewDecoder(&c.buf)
		for i := 0; i < len(rq.sweep); i++ {
			var row server.SweepOutcome
			if err := dec.Decode(&row); err != nil {
				return fmt.Errorf("decode row %d: %w", i, err)
			}
			rows = append(rows, row)
		}
		if err := dec.Decode(&sum); err != nil {
			return fmt.Errorf("decode summary: %w", err)
		}
		if !sum.Done || sum.Rows != len(rq.sweep) || sum.Cached != rq.cached {
			return fmt.Errorf("stream summary %+v", sum)
		}
		if !reflect.DeepEqual(rows, rq.sweep) {
			return fmt.Errorf("streamed rows differ from the in-process sweep")
		}
	default:
		var got server.SweepResponse
		if err := json.Unmarshal(c.buf.Bytes(), &got); err != nil {
			return fmt.Errorf("decode: %w", err)
		}
		if got.Cached != rq.cached {
			return fmt.Errorf("sweep cached=%v, want %v", got.Cached, rq.cached)
		}
		if !reflect.DeepEqual(got.Outcomes, rq.sweep) {
			return fmt.Errorf("sweep outcomes differ from the in-process sweep")
		}
	}
	return nil
}

// hosted is one DSL program the daemon is asked about, analyzed in
// process for the expectations.
type hosted struct {
	src string
	key string // the reply's "scenario"
	a   *systolic.Analysis
}

func newHosted(w *systolic.Workload, err error) (*hosted, error) {
	if err != nil {
		return nil, err
	}
	src := systolic.FormatDSL(w.Program, w.Topology)
	p, t, err := systolic.ParseDSL(src)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	a, err := systolic.Analyze(p, t, systolic.AnalyzeOptions{})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	if !a.DeadlockFree {
		return nil, fmt.Errorf("%s: not deadlock-free, so /v1/run would refuse it", w.Name)
	}
	if err := systolic.Precompile(a); err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	return &hosted{src: src, key: machine.ScenarioKey(p, t, nil, nil), a: a}, nil
}

// runRequest builds a /v1/run request and, by running it in process,
// the reply it must get.
func (s *hosted) runRequest(class uint8, src string, rr server.RunRequest) (*request, error) {
	rr.Program = src
	body, err := json.Marshal(rr)
	if err != nil {
		return nil, err
	}
	kind := systolic.DynamicCompatible
	if rr.Policy != "" {
		if kind, err = systolic.ParsePolicyName(rr.Policy); err != nil {
			return nil, err
		}
	}
	faults, err := systolic.ParseFaultSpec(rr.Faults)
	if err != nil {
		return nil, err
	}
	eopts := systolic.ExecOptions{Policy: kind, QueuesPerLink: rr.Queues, Capacity: rr.Capacity, Seed: rr.Seed, Force: rr.Force, Faults: faults}
	want := &server.RunResponse{Scenario: s.key}
	if rr.LinkModel != "" {
		if eopts.LinkModel, err = systolic.ParseLinkModelSpec(rr.LinkModel); err != nil {
			return nil, err
		}
		want.LinkModel = eopts.LinkModel.String()
	}
	res, err := systolic.Execute(s.a, eopts)
	if err != nil {
		return nil, fmt.Errorf("request %s would be refused: %w", body[:min(len(body), 80)], err)
	}
	if (kind == systolic.DynamicCompatible || kind == systolic.StaticAssignment) && !rr.Force && !res.Completed {
		return nil, fmt.Errorf("in-process run %s where Theorem 1 promises completion", res.Outcome())
	}
	want.Outcome, want.Cycles = res.Outcome(), res.Cycles
	want.QueuesUsed, want.MinQueues = s.a.ResolveQueues(kind, rr.Queues), s.a.MinQueues(kind)
	want.WordsMoved, want.Faults, want.GatedOps = res.Stats.WordsMoved, res.Faults, res.Stats.GatedOps
	if res.Deadlocked {
		want.Blocked = strings.Split(strings.TrimRight(machine.DescribeBlocked(s.a.Program, res.Blocked), "\n"), "\n")
	}
	return &request{
		class: class, path: "/v1/run", body: body, run: want,
		digest: foldRun(digestSeed, res), cycles: int64(res.Cycles),
		bare: func() error {
			_, err := systolic.Execute(s.a, eopts)
			return err
		},
	}, nil
}

// analyzeRequest builds a /v1/analyze request and its expected reply.
func (s *hosted) analyzeRequest() (*request, error) {
	body, err := json.Marshal(server.AnalyzeRequest{Program: s.src})
	if err != nil {
		return nil, err
	}
	want := &server.AnalyzeResponse{
		Scenario: s.key, DeadlockFree: s.a.DeadlockFree, Strict: s.a.Strict,
		MinQueuesDynamic: s.a.MinQueuesDynamic, MinQueuesStatic: s.a.MinQueuesStatic,
	}
	h := digestSeed
	for _, m := range s.a.Program.Messages() {
		want.Labels = append(want.Labels, server.LabelInfo{Message: m.Name, Label: s.a.Labeling.ByMessage[m.ID].String(), Rank: s.a.Labeling.Dense[m.ID]})
		h = mix(h, uint64(s.a.Labeling.Dense[m.ID]))
	}
	return &request{class: clsAnalyzeHit, path: "/v1/analyze", body: body, analyze: want, cached: true, digest: h}, nil
}

// sweepRequests builds the streamed and the buffered form of one
// default-axes sweep of s, and the outcome list both must carry.
func (s *hosted) sweepRequests(seed int64) (stream, buffered *request, err error) {
	body, err := json.Marshal(server.SweepRequest{Program: s.src, Seed: seed})
	if err != nil {
		return nil, nil, err
	}
	axes := systolic.DefaultSweepAxes()
	axes.Seed = seed
	rep, err := systolic.Sweep(context.Background(), []systolic.SweepCase{{Name: "program", Program: s.a.Program, Topology: s.a.Topology}}, axes, systolic.SweepOptions{Workers: 1})
	if err != nil {
		return nil, nil, err
	}
	var want []server.SweepOutcome
	h, cycles := digestSeed, int64(0)
	for _, o := range rep.Outcomes {
		if err := checkOutcome(o); err != nil {
			return nil, nil, err
		}
		want = append(want, server.SweepOutcome{
			Case: o.CaseName, Policy: o.Policy.String(), Queues: o.QueuesUsed, Capacity: o.Capacity,
			Lookahead: o.Lookahead, LinkModel: o.LinkModel, Result: o.Result, Cycles: o.Cycles, Error: o.Err,
		})
		h = foldOutcome(h, o.Result, o.Cycles, o.QueuesUsed, o.MaxQueueDepth)
		cycles += int64(o.Cycles)
	}
	mk := func(class uint8, path string) *request {
		return &request{class: class, path: path, body: body, sweep: want, cached: true, digest: h, cycles: cycles}
	}
	return mk(clsSweepStream, "/v1/sweep?stream=1"), mk(clsSweepBuffered, "/v1/sweep"), nil
}

// servingWorkload is the part serve-hit and serve-cold share: a
// daemon, a fixed schedule of requests, and the closed loop over it.
type servingWorkload struct {
	opts     systolic.ServeOptions
	d        *daemon
	schedule []*request
	// primer is sent, untimed, to fill the cache: once at set-up for
	// serve-hit, into a fresh daemon before every round for serve-cold.
	primer     []*request
	freshRound bool
	// delta is the GET /v1/stats movement over the last traced round.
	delta systolic.ServeStats
}

func (w *servingWorkload) ops() int { return len(w.schedule) }

func (w *servingWorkload) tearDown() error {
	d := w.d
	w.d, w.schedule, w.primer = nil, nil, nil
	return d.stop()
}

// prime sends the primer requests and checks their replies; their
// "cached" flag is whatever a first contact says.
func (w *servingWorkload) prime() error {
	c := &conn{d: w.d}
	for _, rq := range w.primer {
		var o opResult
		first := *rq
		first.cached = false
		c.do(&first, &o, nil, -1)
		if o.err != nil {
			return fmt.Errorf("prime: %w", o.err)
		}
	}
	return nil
}

func (w *servingWorkload) prepare() error {
	if !w.freshRound {
		return nil
	}
	w.d.reset(w.opts)
	return w.prime()
}

func (w *servingWorkload) round(out []opResult, rec *recorder) {
	var before systolic.ServeStats
	if rec != nil {
		var err error
		if before, err = w.d.stats(); err != nil {
			out[0].fail(fmt.Errorf("stats: %w", err), 1)
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cn := &conn{d: w.d}
			for {
				i := int(next.Add(1)) - 1
				if i >= len(out) {
					return
				}
				cn.do(w.schedule[i], &out[i], rec, int32(i))
			}
		}()
	}
	wg.Wait()
	if rec != nil {
		w.d.quiesce()
		after, err := w.d.stats()
		if err != nil {
			out[0].fail(fmt.Errorf("stats: %w", err), 1)
		}
		w.delta = systolic.ServeStats{
			CacheHits:      after.CacheHits - before.CacheHits,
			CacheMisses:    after.CacheMisses - before.CacheMisses,
			CacheEvictions: after.CacheEvictions - before.CacheEvictions,
			ShedRequests:   after.ShedRequests - before.ShedRequests,
		}
	}
}

// extras finishes the server block: the cache counters of the last
// traced round and what the socket costs over the bare simulation.
func (w *servingWorkload) extras(lv layerValues, _ *recorder) error {
	lv["server.cache_hits"] = float64(w.delta.CacheHits)
	lv["server.cache_misses"] = float64(w.delta.CacheMisses)
	lv["server.cache_evictions"] = float64(w.delta.CacheEvictions)
	lv["server.shed"] = float64(w.delta.ShedRequests)
	var bare []float64
	for _, rq := range w.schedule {
		if rq.class != clsRunHit || len(bare) >= 2000 {
			continue
		}
		start := time.Now()
		if err := rq.bare(); err != nil {
			return err
		}
		bare = append(bare, float64(time.Since(start))/float64(time.Microsecond))
	}
	sort.Float64s(bare)
	if p50 := percentile(bare, 50); p50 > 0 {
		lv["server.overhead_vs_bare"] = lv["server.run_hit.p50_us"] / p50
	}
	return nil
}

// serveHit: 16 small programs primed into the cache; 85 % runs with
// per-run options varied per request (they never split the cache) and
// 15 % analyses, every one an alias hit.
type serveHit struct {
	servingWorkload
	size sizeClass
}

func newServeHit(size sizeClass) workload { return &serveHit{size: size} }

func (w *serveHit) setUp(seed int64, rec *recorder) error {
	rng := rand.New(rand.NewSource(seed))
	small := systolic.GenOptions{Cells: 6, Messages: 10, MaxWords: 3, Interleave: 2, Cyclic: true}
	programs := []func() (*systolic.Workload, error){
		func() (*systolic.Workload, error) { return systolic.Fig2Workload(), nil },
		func() (*systolic.Workload, error) { return systolic.Fig3Workload(), nil },
		func() (*systolic.Workload, error) { return systolic.Fig6Workload(), nil },
		func() (*systolic.Workload, error) { return systolic.Fig7Workload(systolic.Fig7Options{}), nil },
		func() (*systolic.Workload, error) { return systolic.Fig8Workload(), nil },
		func() (*systolic.Workload, error) { return systolic.Fig9Workload(), nil },
		func() (*systolic.Workload, error) { return systolic.FIR(systolic.FIROptions{Taps: 4, Outputs: 32}) },
		func() (*systolic.Workload, error) { return systolic.MatVec(systolic.MatVecOptions{N: 4}) },
		func() (*systolic.Workload, error) {
			return systolic.HornerEval(systolic.HornerOptions{Degree: 3, Count: 8})
		},
		func() (*systolic.Workload, error) {
			return systolic.MatMul(systolic.MatMulOptions{Rows: 2, Inner: 2, Cols: 2})
		},
		func() (*systolic.Workload, error) { return systolic.FFTGraph(systolic.FFTOptions{LogN: 3}) },
		func() (*systolic.Workload, error) {
			return systolic.AttentionGraph(systolic.AttentionOptions{Tokens: 6, Experts: 3})
		},
	}
	for len(programs) < 16 {
		genSeed := rng.Int63()
		programs = append(programs, func() (*systolic.Workload, error) { return genWorkload(genSeed, small) })
	}
	var all []*hosted
	for _, build := range programs {
		s, err := newHosted(build())
		if err != nil {
			return err
		}
		all = append(all, s)
	}

	// Every program is asked about under the same sixteen option mixes,
	// so what a seed changes is the four generated programs, where the
	// faults sit and the order of requests — not how much simulation
	// the mix holds.
	var runs, analyses []*request
	for _, s := range all {
		for _, rr := range variedRuns(rng, s) {
			rq, err := s.runRequest(clsRunHit, s.src, rr)
			if err != nil {
				return err
			}
			rq.cached = true
			runs = append(runs, rq)
		}
		rq, err := s.analyzeRequest()
		if err != nil {
			return err
		}
		analyses = append(analyses, rq)
	}
	n := 20000
	if w.size == tiny {
		n = 300
	}
	w.schedule = make([]*request, n)
	for i := range w.schedule {
		if rng.Intn(100) < 15 {
			w.schedule[i] = analyses[rng.Intn(len(analyses))]
		} else {
			w.schedule[i] = runs[rng.Intn(len(runs))]
		}
	}
	for _, s := range all {
		rq, err := s.runRequest(clsRunHit, s.src, server.RunRequest{})
		if err != nil {
			return err
		}
		w.primer = append(w.primer, rq)
	}
	var err error
	if w.d, err = boot(w.opts, rec); err != nil {
		return err
	}
	return w.prime()
}

// variedRuns is the option mixes one program is run under: policy,
// queue budget, capacity, faults and link model all vary, and none of
// them is part of the cache key. Ten are compatible-policy runs at an
// approved budget, three static, three naive FCFS — which may deadlock,
// and the reply must then say so, blocked cells included, exactly as
// the in-process run does.
func variedRuns(rng *rand.Rand, s *hosted) []server.RunRequest {
	dyn, static := s.a.MinQueuesDynamic, s.a.MinQueuesStatic
	cells, links := s.a.Program.NumCells(), len(s.a.Topology.Links())
	slowCell := func() string { return fmt.Sprintf("cell:%d:slow=%d", rng.Intn(cells), 2+rng.Intn(2)) }
	slowBoth := func() string { return slowCell() + fmt.Sprintf(",link:%d:slow=2", rng.Intn(links)) }
	const fixed, congestion = "fixed,delay=2", "congestion,delay=1,threshold=2,max=3"
	return []server.RunRequest{
		{Capacity: 1},
		{Queues: dyn, Capacity: 2},
		{Queues: dyn + 1, Capacity: 3},
		{Capacity: 2, Faults: slowCell()},
		{Queues: dyn, Capacity: 1, LinkModel: fixed},
		{Capacity: 3, LinkModel: congestion},
		{Queues: dyn + 1, Capacity: 1, Faults: slowBoth()},
		{Capacity: 2},
		{Queues: dyn, Capacity: 3},
		{Capacity: 1, Faults: slowCell(), LinkModel: fixed},
		{Policy: "static", Capacity: 1},
		{Policy: "static", Queues: static, Capacity: 2},
		{Policy: "static", Capacity: 2, LinkModel: fixed},
		{Policy: "fcfs", Queues: 1, Capacity: 1},
		{Policy: "fcfs", Queues: 2, Capacity: 2},
		{Policy: "fcfs", Queues: 3, Capacity: 1, Faults: slowCell()},
	}
}

// serveCold: a 32-entry cache against a stream it cannot hold. Every
// round starts from an empty daemon, so the schedule — and with it the
// digest and the cache counters — repeats exactly. Per block of 20
// ops: 10 runs of never-seen generated programs (parse, analyze,
// compile, evict), 4 re-texted repeats of a recent one (parse and
// canonical key, no compile), 3 streamed and 3 buffered sweeps of a
// resident mid-size program.
type serveCold struct {
	servingWorkload
	size sizeClass
}

func newServeCold(size sizeClass) workload {
	w := &serveCold{size: size}
	w.opts = systolic.ServeOptions{CacheSize: 32}
	w.freshRound = true
	return w
}

func (w *serveCold) setUp(seed int64, rec *recorder) error {
	rng := rand.New(rand.NewSource(seed))
	resident, err := newHosted(systolic.StencilGraph(systolic.StencilOptions{Rows: 4, Cols: 4, Iters: 2}))
	if err != nil {
		return err
	}
	stream, buffered, err := resident.sweepRequests(seed)
	if err != nil {
		return err
	}
	w.primer = []*request{buffered}

	blocks := 60
	if w.size == tiny {
		blocks = 2
	}
	type miss struct {
		s  *hosted
		at int // schedule index
	}
	var misses []miss
	for b := 0; b < blocks; b++ {
		// A block opens with a miss, so a repeat always has a recent
		// program to re-text; the other 19 ops are shuffled. Sweeps are
		// then never more than 20 cache insertions apart, which keeps
		// the resident program resident whatever the seed.
		kinds := []uint8{
			clsRunMiss, clsRunMiss, clsRunMiss, clsRunMiss, clsRunMiss, clsRunMiss, clsRunMiss, clsRunMiss, clsRunMiss,
			clsRunCanon, clsRunCanon, clsRunCanon, clsRunCanon,
			clsSweepStream, clsSweepStream, clsSweepStream, clsSweepBuffered, clsSweepBuffered, clsSweepBuffered,
		}
		rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		for _, kind := range append([]uint8{clsRunMiss}, kinds...) {
			var rq *request
			switch kind {
			case clsRunMiss:
				// Sizes walk 16..32 cells and the three topology families
				// in turn, so every seed's stream has the same mix of shapes
				// and differs in structure only.
				gen := systolic.GenOptions{Cells: 16 + len(misses)%17, MaxWords: 4, Interleave: 3, Cyclic: true}
				gen.Messages = 2 * gen.Cells
				gen.Topology = []systolic.GenTopoKind{systolic.GenTopoLinear, systolic.GenTopoRing, systolic.GenTopoMesh}[len(misses)%3]
				var s *hosted
				if s, err = newHosted(genWorkload(rng.Int63(), gen)); err != nil {
					return err
				}
				misses = append(misses, miss{s, len(w.schedule)})
				rq, err = s.runRequest(clsRunMiss, s.src, server.RunRequest{Capacity: 2})
			case clsRunCanon:
				// One of the four latest programs whose first request is
				// at least four ops back, so it has been answered and is
				// still resident: same structure, new text — the alias
				// lookup misses, the canonical one hits.
				old := len(misses)
				for old > 1 && misses[old-1].at > len(w.schedule)-4 {
					old--
				}
				s := misses[old-1-rng.Intn(min(4, old))].s
				retext := fmt.Sprintf("# op %d\n", len(w.schedule)) + strings.ReplaceAll(s.src, "\n", "  \n")
				rq, err = s.runRequest(clsRunCanon, retext, server.RunRequest{Capacity: 2})
			case clsSweepStream:
				rq = stream
			default:
				rq = buffered
			}
			if err != nil {
				return err
			}
			w.schedule = append(w.schedule, rq)
		}
	}
	w.d, err = boot(w.opts, rec)
	return err
}
