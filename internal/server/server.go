// Package server turns the systolic library into a long-running
// simulation service: an HTTP/JSON daemon that accepts DSL programs,
// analyzes and simulates them, fans out parameter-sweep grids, and
// retains results for later retrieval.
//
// The throughput story is the content-addressed compiled-machine
// cache (see cache.go): every request's scenario — program, topology,
// analysis options — is canonically hashed, cache hits skip parsing,
// Analyze, and machine compilation entirely and go straight to a
// pooled machine.Run, a repeated identical /v1/run or /v1/analyze body
// skips even that and is answered with the bytes its last run encoded,
// concurrent identical compiles are deduplicated singleflight style,
// and an LRU bound caps residency. A shared
// sweep.Limiter bounds simultaneous simulations across every
// endpoint, so a burst of /v1/run traffic and a wide /v1/sweep grid
// draw from one -max-concurrency budget.
//
// Endpoints:
//
//	POST /v1/analyze   classify, label, and size a DSL program
//	POST /v1/run       simulate under a policy/queues/capacity config
//	POST /v1/sweep     run a whole configuration grid
//	GET  /v1/results/{id}  replay a prior response document
//	GET  /v1/stats     cache and concurrency counters
//	GET  /debug/vars   the same counters in expvar form
package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"systolic/internal/core"
	"systolic/internal/dsl"
	"systolic/internal/fault"
	"systolic/internal/linkmodel"
	"systolic/internal/machine"
	"systolic/internal/model"
	"systolic/internal/sweep"
	"systolic/internal/topology"
)

// Options configures a Server.
type Options struct {
	// Addr is the listen address for ListenAndServe (default
	// "127.0.0.1:8080").
	Addr string
	// CacheSize bounds the compiled-scenario LRU cache (entries;
	// default 128).
	CacheSize int
	// MaxConcurrency bounds simultaneous simulations across all
	// endpoints (default runtime.GOMAXPROCS(0)).
	MaxConcurrency int
	// QueueWait bounds how many requests may wait for a free run slot
	// before the server sheds load with 429 + Retry-After: 0 means the
	// default pool of 2×MaxConcurrency, -1 disables waiting entirely
	// (any request that misses a free slot is shed), n > 0 admits n
	// waiters.
	QueueWait int
	// TenantsFile is a path to a tenants JSON file enabling per-tenant
	// API keys and quotas on the compute endpoints (see tenant.go).
	// New loads it once; if that fails, every compute endpoint answers
	// 500 with the error rather than serve anonymously. Empty means
	// anonymous.
	TenantsFile string
	// Log, when non-nil, receives one line on listen and one on
	// shutdown, plus one per response-write failure (a half-written
	// reply is diagnosable instead of silent).
	Log io.Writer
}

// Server is the simulation service. Create it with New; it is ready
// to serve immediately and safe for concurrent use.
type Server struct {
	opts    Options
	cache   *scenarioCache
	results *resultStore
	limiter *sweep.Limiter
	adm     *admission
	tenants *Tenants // never nil; anonymous() without a tenants file
	// tenantsErr is why TenantsFile failed to load; the tenant gate
	// then refuses every compute request with it.
	tenantsErr error
	mux        *http.ServeMux

	requests atomic.Int64
}

// New builds a Server from options.
func New(opts Options) *Server {
	s := &Server{
		opts:    opts,
		cache:   newScenarioCache(opts.CacheSize),
		results: newResultStore(),
		limiter: sweep.NewLimiter(opts.MaxConcurrency),
		tenants: anonymous(),
		mux:     http.NewServeMux(),
	}
	if opts.TenantsFile != "" {
		if ts, err := loadTenants(opts.TenantsFile); err != nil {
			s.tenantsErr = err
		} else {
			s.tenants = ts
		}
	}
	s.adm = newAdmission(s.limiter, opts.QueueWait)
	// The compute endpoints go through the tenant gate; the read
	// endpoints stay open so operators can always inspect results and
	// stats.
	s.mux.HandleFunc("POST /v1/analyze", s.gate(s.handleAnalyze))
	s.mux.HandleFunc("POST /v1/run", s.gate(s.handleRun))
	s.mux.HandleFunc("POST /v1/sweep", s.gate(s.handleSweep))
	s.mux.HandleFunc("GET /v1/results/{id}", s.handleResult)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.Handle("GET /debug/vars", expvar.Handler())
	publishExpvar(s)
	return s
}

// Routes lists the service's route patterns. The docs/API.md
// conformance test walks this list, so an endpoint cannot be added
// without documenting it.
func Routes() []string {
	return []string{
		"POST /v1/analyze",
		"POST /v1/run",
		"POST /v1/sweep",
		"GET /v1/results/{id}",
		"GET /v1/stats",
	}
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/") {
			s.requests.Add(1)
		}
		s.mux.ServeHTTP(w, r)
	})
}

// ListenAndServe runs a Server on opts.Addr until ctx is cancelled,
// then shuts down gracefully (in-flight requests get five seconds to
// drain). It returns nil on a clean shutdown.
func ListenAndServe(ctx context.Context, opts Options) error {
	addr := opts.Addr
	if addr == "" {
		addr = "127.0.0.1:8080"
	}
	s := New(opts)
	if s.tenantsErr != nil {
		return fmt.Errorf("server: %w", s.tenantsErr)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("server: listen: %w", err)
	}
	if opts.Log != nil {
		fmt.Fprintf(opts.Log, "sysdl serve: listening on http://%s (cache %d scenarios, %d concurrent runs, %d waiters, %d tenants)\n",
			ln.Addr(), s.cache.max, s.limiter.Cap(), s.adm.waitCap, len(s.tenants.byKey))
	}
	hs := newHTTPServer(s.Handler(), readHeaderTimeout, idleTimeout)
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case <-ctx.Done():
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		err := hs.Shutdown(sctx)
		if opts.Log != nil {
			fmt.Fprintln(opts.Log, "sysdl serve: shut down")
		}
		return err
	case err := <-errc:
		return fmt.Errorf("server: %w", err)
	}
}

// Listener timeouts: a connection that does not finish its request
// headers, or sits idle between keep-alive requests, for this long is
// closed.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 2 * time.Minute
)

// newHTTPServer is the listener configuration of ListenAndServe. It
// bounds how long a client may take over its headers and how long an
// idle keep-alive connection is held; it sets no WriteTimeout, because
// a streamed sweep's response legitimately stays open as long as its
// grid runs, and the body is bounded by size (maxBodyBytes) instead.
func newHTTPServer(h http.Handler, readHeader, idle time.Duration) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: readHeader, IdleTimeout: idle}
}

// statusError carries an HTTP status with an error; retryAfter > 0
// additionally sets a Retry-After header (seconds) on the reply, the
// back-off contract of every 429.
type statusError struct {
	code       int
	retryAfter int
	err        error
}

func (e *statusError) Error() string { return e.err.Error() }

func badRequest(err error) *statusError {
	return &statusError{code: http.StatusBadRequest, err: err}
}

// lookup resolves a request's scenario through the cache: the alias
// fast path first (one hash, one map probe, no parsing), then the
// canonical path (parse, hash the parsed form, compile at most once
// process-wide). cached reports whether a compile was skipped.
func (s *Server) lookup(program string, key analysisKey) (e *entry, cached bool, err error) {
	src := srcDigest(program, key)
	if e, ok := s.cache.lookupSrc(src); ok {
		return e, true, nil
	}
	f, perr := dsl.Parse(program)
	if perr != nil {
		return nil, false, badRequest(perr)
	}
	scenario := machine.ScenarioKey(f.Program, f.Topology, nil, nil)
	canon := canonDigest(scenario, key)
	e, hit := s.cache.getOrCompile(canon, src, scenario, func() (*core.Analysis, error) {
		a, err := core.Analyze(f.Program, f.Topology, key.options())
		if err != nil {
			return nil, err
		}
		if a.DeadlockFree {
			if _, err := a.Machine(); err != nil {
				return nil, err
			}
		}
		return a, nil
	})
	return e, hit, nil
}

// logf writes one diagnostic line to Options.Log, if configured.
func (s *Server) logf(format string, args ...any) {
	if s.opts.Log != nil {
		fmt.Fprintf(s.opts.Log, "sysdl serve: "+format+"\n", args...)
	}
}

// writeJSON writes a JSON response body with status code. Encode
// failures happen after headers are committed, so they are logged
// rather than mapped to a status.
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	if err := enc.Encode(v); err != nil {
		s.logf("response encode after headers committed: %v", err)
	}
}

// writeError maps an error onto an ErrorResponse.
func (s *Server) writeError(w http.ResponseWriter, err error) {
	code := http.StatusUnprocessableEntity
	var se *statusError
	if errors.As(err, &se) {
		code = se.code
		if se.retryAfter > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(se.retryAfter))
		}
	}
	var oe *core.OptionError
	var ce *machine.ConfigError
	if errors.As(err, &oe) || errors.As(err, &ce) {
		code = http.StatusBadRequest
	}
	s.writeJSON(w, code, ErrorResponse{Error: err.Error()})
}

// maxBodyBytes bounds request bodies: generous for DSL text, small
// enough that one bad client cannot exhaust the daemon's memory.
const maxBodyBytes = 8 << 20

// Route tags: the endpoint a body was posted to, first byte of the
// body-level cache key. /v1/sweep is deliberately not memoized — it
// makes one scenario lookup per lookahead, and the cache counters are
// exact counts of those.
const (
	routeAnalyze byte = 'a'
	routeRun     byte = 'r'
	routeSweep   byte = 's'
)

// keyHeader is what precedes the body in a request buffer: the route
// tag and the tenant tier's cycle bound, which is the one thing outside
// the body that a reply depends on. Buffer = header ‖ body is the
// preimage of the body-level key, so the key is one sha256 over
// memory the body had to be read into anyway.
const keyHeader = 1 + 8

// bodyPool recycles request buffers. One over maxPooledBody is left to
// the collector instead: a single multi-megabyte program must not pin
// its buffer for the life of the daemon.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBody = 64 << 10

// accept is the one reader of request bodies. It reads the body once,
// size-bounded, and either answers it on the spot — a body this route
// has answered before under the same cycle bound gets the recorded
// reply: no decode, no run slot, no simulation — or decodes it strictly
// into v. ok false means the reply (the recorded one, or an error) has
// been written and the handler is done; otherwise key is what the
// handler records its own reply under. The tenant gate (API key, rate
// limit) has already passed for t by the time a handler calls this; a
// recorded reply runs nothing, so it claims neither a limiter slot nor
// one of the tenant's concurrent runs.
func (s *Server) accept(w http.ResponseWriter, r *http.Request, t *tenant, route byte, v any) (key cacheKey, ok bool) {
	buf := bodyPool.Get().(*bytes.Buffer)
	defer func() {
		if buf.Cap() <= maxPooledBody {
			bodyPool.Put(buf)
		}
	}()
	buf.Reset()
	var header [keyHeader]byte
	header[0] = route
	binary.LittleEndian.PutUint64(header[1:], uint64(t.tier.MaxCycles))
	buf.Write(header[:])
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes)); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			err = &statusError{code: http.StatusRequestEntityTooLarge, err: fmt.Errorf("request body over %d bytes", tooBig.Limit)}
		} else {
			err = badRequest(fmt.Errorf("bad request body: %w", err))
		}
		s.writeError(w, err)
		return key, false
	}
	if route != routeSweep {
		key = sha256.Sum256(buf.Bytes())
		if tail := s.cache.lookupBody(key); tail != nil {
			s.replay(w, tail)
			return key, false
		}
	}
	if err := decodeStrict(buf.Bytes()[keyHeader:], v); err != nil {
		s.writeError(w, badRequest(fmt.Errorf("bad request body: %w", err)))
		return key, false
	}
	return key, true
}

// decodeStrict decodes a request body that must be exactly one JSON
// value of v's shape: no unknown fields, nothing but whitespace after
// the value.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if rest := bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n"); len(rest) > 0 {
		return fmt.Errorf("unexpected %q after the request object", rest[:min(len(rest), 16)])
	}
	return nil
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request, t *tenant) {
	var req AnalyzeRequest
	key, ok := s.accept(w, r, t, routeAnalyze, &req)
	if !ok {
		return
	}
	e, cached, err := s.lookup(req.Program, runKey(req.Analyze))
	if err != nil {
		s.writeError(w, err)
		return
	}
	a, err := e.wait()
	if err != nil {
		s.writeError(w, badRequest(err))
		return
	}
	resp := &AnalyzeResponse{
		ID:               s.results.nextID(),
		Scenario:         e.scenario,
		Cached:           cached,
		DeadlockFree:     a.DeadlockFree,
		Strict:           a.Strict,
		MinQueuesDynamic: a.MinQueuesDynamic,
		MinQueuesStatic:  a.MinQueuesStatic,
	}
	if a.DeadlockFree {
		for _, msg := range a.Program.Messages() {
			resp.Labels = append(resp.Labels, LabelInfo{
				Message: msg.Name,
				Label:   a.Labeling.ByMessage[msg.ID].String(),
				Rank:    a.Labeling.Dense[msg.ID],
			})
		}
	}
	s.storeReply(w, e, key, resp.ID, resp.Cached, resp)
}

// slotGuard releases one limiter slot exactly once. It lives on the
// handler's stack (a deferred method on a local, not a closure) so the
// cache-hit run path stays within its allocation gate.
type slotGuard struct {
	l        *sweep.Limiter
	released bool
}

func (g *slotGuard) release() {
	if !g.released {
		g.released = true
		g.l.Release()
	}
}

// executeRun is the submit-to-result core of POST /v1/run, shared with
// BenchmarkServeCacheHit: everything except HTTP/JSON framing, the
// body-level reply lookup in front of it (accept) and result retention.
// For a resident program it parses the request's policy, fault and
// link-model specs, hashes the source, probes the cache, passes
// admission and makes a pooled machine.Run; it returns the cache entry
// the run came from, for the reply to be recorded under.
func (s *Server) executeRun(ctx context.Context, req *RunRequest, resp *RunResponse) (*entry, error) {
	kind := core.DynamicCompatible
	if req.Policy != "" {
		var err error
		kind, err = core.ParsePolicy(req.Policy)
		if err != nil {
			return nil, badRequest(err)
		}
	}
	plan, err := fault.ParseSpec(req.Faults)
	if err != nil {
		return nil, badRequest(err)
	}
	lplan, err := linkmodel.ParseSpec(req.LinkModel)
	if err != nil {
		return nil, badRequest(err)
	}
	e, cached, err := s.lookup(req.Program, runKey(req.Analyze))
	if err != nil {
		return nil, err
	}
	a, err := e.wait()
	if err != nil {
		return nil, badRequest(err)
	}
	// Admission replaces a bare limiter Acquire: a bounded pool of
	// waiters, then load shedding with 429 + Retry-After (see
	// admission.go). On success we hold one slot.
	if err := s.adm.admit(ctx); err != nil {
		return nil, err
	}
	// The release is defer-guarded: core.Execute re-raises panics from
	// buggy policies to its caller, and before this guard a panic —
	// swallowed by net/http's handler recovery — leaked the slot
	// permanently. The guard releases exactly once whether this
	// function returns or unwinds.
	guard := slotGuard{l: s.limiter}
	defer guard.release()
	if h := testHookAcquired; h != nil {
		h()
	}
	res, err := core.Execute(a, core.ExecOptions{
		Policy:        kind,
		QueuesPerLink: req.Queues,
		Capacity:      req.Capacity,
		Seed:          req.Seed,
		MaxCycles:     req.MaxCycles,
		Force:         req.Force,
		Faults:        plan,
		LinkModel:     lplan,
		// A dropped client cancels its simulation between cycles
		// instead of burning the slot to completion.
		Context: ctx,
	})
	guard.release()
	if err != nil {
		return nil, err
	}
	resp.Scenario = e.scenario
	resp.Cached = cached
	resp.Outcome = res.Outcome()
	resp.Cycles = res.Cycles
	resp.QueuesUsed = a.ResolveQueues(kind, req.Queues)
	resp.MinQueues = a.MinQueues(kind)
	resp.WordsMoved = res.Stats.WordsMoved
	resp.Blocked = nil
	if res.Deadlocked {
		desc := machine.DescribeBlocked(a.Program, res.Blocked)
		resp.Blocked = strings.Split(strings.TrimRight(desc, "\n"), "\n")
	}
	resp.Faults = res.Faults
	resp.GatedOps = res.Stats.GatedOps
	// Echo the model in canonical form (ParseSpec round-trips it); the
	// engine Result itself never carries link timing, so the wire echo
	// is the client's confirmation of what was simulated.
	resp.LinkModel = lplan.String()
	return e, nil
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request, t *tenant) {
	var req RunRequest
	key, ok := s.accept(w, r, t, routeRun, &req)
	if !ok {
		return
	}
	maxCycles, err := t.claim(req.MaxCycles, 0)
	if err != nil {
		s.writeError(w, err)
		return
	}
	defer t.endRun()
	req.MaxCycles = maxCycles
	var resp RunResponse
	e, err := s.executeRun(r.Context(), &req, &resp)
	if err != nil {
		s.writeError(w, err)
		return
	}
	resp.ID = s.results.nextID()
	s.storeReply(w, e, key, resp.ID, resp.Cached, &resp)
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request, t *tenant) {
	var req SweepRequest
	if _, ok := s.accept(w, r, t, routeSweep, &req); !ok {
		return
	}
	stream, err := streamParam(r)
	if err != nil {
		s.writeError(w, err)
		return
	}
	if req.Workers < 0 {
		s.writeError(w, badRequest(fmt.Errorf("negative workers %d (0 = one per CPU)", req.Workers)))
		return
	}
	if req.MaxCycles < 0 {
		s.writeError(w, badRequest(fmt.Errorf("negative maxCycles %d (0 = derived bound)", req.MaxCycles)))
		return
	}
	axes := sweep.Axes{
		Queues:     req.Queues,
		Capacities: req.Capacities,
		Lookaheads: req.Lookaheads,
		LinkModels: req.LinkModels,
		Seed:       req.Seed,
	}
	for _, name := range req.Policies {
		kind, err := core.ParsePolicy(name)
		if err != nil {
			s.writeError(w, badRequest(err))
			return
		}
		axes.Policies = append(axes.Policies, kind)
	}
	// Validate the grid before any admission or streaming commitment:
	// a streamed response commits its 200 with the headers, so every
	// refusal must happen here.
	if err := axes.Validate(); err != nil {
		s.writeError(w, badRequest(err))
		return
	}
	maxCycles, err := t.claim(req.MaxCycles, axes.Size(1))
	if err != nil {
		s.writeError(w, err)
		return
	}
	defer t.endRun()
	// Request-level admission: the sweep engine acquires the limiter
	// per simulated execution, so the request itself only probes — an
	// overloaded daemon sheds the whole sweep with 429 up front.
	if err := s.adm.probe(r.Context()); err != nil {
		s.writeError(w, err)
		return
	}
	job, err := s.prepareSweep(&req, axes, maxCycles)
	if err != nil {
		s.writeError(w, err)
		return
	}
	if stream {
		s.streamSweep(w, r, job)
		return
	}
	rep, err := sweep.Run(r.Context(), job.cases, job.axes, job.opts)
	if err != nil {
		s.writeError(w, err)
		return
	}
	resp := s.sweepDocument(job, rep)
	s.store(w, resp.ID, resp)
}

// sweepDocument builds a finished sweep's response document under a
// fresh id: the buffered reply, and what a streamed sweep retains for
// GET /v1/results/{id}.
func (s *Server) sweepDocument(job *sweepJob, rep *sweep.Report) *SweepResponse {
	resp := &SweepResponse{ID: s.results.nextID(), Scenario: job.scenario, Cached: job.cached, Table: rep.Table()}
	for _, o := range rep.Outcomes {
		resp.Outcomes = append(resp.Outcomes, wireOutcome(o))
	}
	return resp
}

// wireOutcome converts one engine outcome to its wire form. The
// buffered and streaming sweep paths share it, which is what makes a
// streamed row byte-equivalent to the buffered list's element.
func wireOutcome(o sweep.Outcome) SweepOutcome {
	return SweepOutcome{
		Case:      o.CaseName,
		Policy:    o.Policy.String(),
		Queues:    o.QueuesUsed,
		Capacity:  o.Capacity,
		Lookahead: o.Lookahead,
		LinkModel: o.LinkModel,
		Result:    o.Result,
		Cycles:    o.Cycles,
		Error:     o.Err,
	}
}

// sweepJob is a validated, cache-resolved sweep ready to run, shared
// by the buffered and streaming paths.
type sweepJob struct {
	cases    []sweep.Case
	axes     sweep.Axes
	opts     sweep.Options
	scenario string
	cached   bool // every lookahead's analysis came from the cache
}

// prepareSweep resolves the request's per-lookahead analyses through
// the scenario cache — the same content-addressed path /v1/run and
// /v1/analyze use — and packages the sweep so the engine's own
// analyze step never runs: repeated sweeps of one program skip
// parsing, Analyze, and machine compilation entirely.
func (s *Server) prepareSweep(req *SweepRequest, axes sweep.Axes, maxCycles int) (*sweepJob, error) {
	type resolved struct {
		a   *core.Analysis
		err error
	}
	las := axes.WithDefaults().Lookaheads
	res := make(map[int]resolved, len(las))
	scenario := ""
	cachedAll := true
	var prog *model.Program
	var topo topology.Topology
	for _, la := range las {
		if _, seen := res[la]; seen {
			continue
		}
		e, hit, err := s.lookup(req.Program, sweepKey(la))
		if err != nil {
			// Unparseable program: a request-level 400, exactly as the
			// run path refuses it.
			return nil, err
		}
		a, aerr := e.wait()
		res[la] = resolved{a: a, err: aerr}
		if !hit {
			cachedAll = false
		}
		scenario = e.scenario
		if a != nil && prog == nil {
			prog, topo = a.Program, a.Topology
		}
	}
	if prog == nil {
		// Every lookahead's analysis failed; parse once so the grid can
		// still report the per-point errors the engine contract
		// promises.
		f, err := dsl.Parse(req.Program)
		if err != nil {
			return nil, badRequest(err)
		}
		prog, topo = f.Program, f.Topology
	}
	// Faults are validated against the program before any streaming
	// commitment: an ill-fitting plan refuses the whole sweep with 400
	// instead of surfacing as an identical error on every grid point.
	plan, err := fault.ParseSpec(req.Faults)
	if err != nil {
		return nil, badRequest(err)
	}
	if err := plan.Validate(prog.NumCells(), len(topo.Links())); err != nil {
		return nil, badRequest(err)
	}
	return &sweepJob{
		cases: []sweep.Case{{Name: "program", Program: prog, Topology: topo}},
		axes:  axes,
		opts: sweep.Options{
			Workers:   req.Workers,
			MaxCycles: maxCycles,
			Faults:    plan,
			Limiter:   s.limiter,
			Analysis: func(_, lookahead int) (*core.Analysis, error) {
				r := res[lookahead]
				return r.a, r.err
			},
		},
		scenario: scenario,
		cached:   cachedAll,
	}, nil
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	body, ok := s.results.get(id)
	if !ok {
		s.writeJSON(w, http.StatusNotFound, ErrorResponse{Error: fmt.Sprintf("no result %q (retention is bounded; see /v1/stats)", id)})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(body); err != nil {
		s.logf("result %s: replay write: %v", id, err)
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.statsSnapshot())
}

// statsSnapshot assembles the live counters.
func (s *Server) statsSnapshot() StatsResponse {
	entries, replies := s.cache.len()
	return StatsResponse{
		CacheHits:      s.cache.hits.Load(),
		CacheMisses:    s.cache.misses.Load(),
		CacheEvictions: s.cache.evictions.Load(),
		CacheEntries:   entries,
		ReplyHits:      s.cache.replyHits.Load(),
		ReplyEntries:   replies,
		// The limiter sees every simulation — single runs and sweep
		// grid points alike — so its occupancy is the saturation
		// signal, not a per-endpoint counter.
		InFlightRuns:   int64(s.limiter.InUse()),
		MaxConcurrency: s.limiter.Cap(),
		ShedRequests:   s.adm.shed.Load(),
		QueueDepth:     s.adm.waiting.Load(),
		QueueWait:      s.adm.waitCap,
		Tenants:        len(s.tenants.byKey),
		TenantRejects:  s.tenants.rejects.Load(),
		AuthFailures:   s.tenants.authFailures.Load(),
		Results:        s.results.len(),
		Requests:       s.requests.Load(),
	}
}

// idOpen is how every response document starts; the id value follows.
const idOpen = `{"id":"`

// store marshals a response document, retains it under id, and writes
// it as the HTTP reply. The retained bytes include the framing
// newline, so GET /v1/results/{id} replays the response exactly. It
// returns the document, nil if it could not be encoded.
func (s *Server) store(w http.ResponseWriter, id string, v any) []byte {
	body, err := json.Marshal(v)
	if err != nil {
		s.writeJSON(w, http.StatusInternalServerError, ErrorResponse{Error: err.Error()})
		return nil
	}
	body = append(body, '\n')
	s.send(w, id, body)
	return body
}

// storeReply is store for the two memoized routes: a reply in its
// repeat form ("cached": true — what every later post of the same body
// must be told) is also recorded under the body's key, minus the id. A
// first-contact reply says "cached": false and is not recorded; the
// body's next post is an alias hit, and that one is. Only a completed
// request reaches it: no error reply is ever recorded.
func (s *Server) storeReply(w http.ResponseWriter, e *entry, key cacheKey, id string, cached bool, v any) {
	if body := s.store(w, id, v); body != nil && cached {
		s.cache.recordReply(e, key, body[len(idOpen)+len(id):])
	}
}

// replay answers a request with a recorded reply under a fresh id. The
// one document built here is both what the client is sent and what
// GET /v1/results/{id} replays.
func (s *Server) replay(w http.ResponseWriter, tail []byte) {
	id := s.results.nextID()
	doc := make([]byte, 0, len(idOpen)+len(id)+len(tail))
	doc = append(append(append(doc, idOpen...), id...), tail...)
	s.send(w, id, doc)
}

// send retains an encoded response document under id and writes it.
func (s *Server) send(w http.ResponseWriter, id string, doc []byte) {
	s.results.save(id, doc)
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(doc); err != nil {
		s.logf("result %s: response write: %v", id, err)
	}
}

// expvar publication: one process-wide "sysdl_serve" Func that reads
// the most recently created Server's counters, registered exactly
// once so tests creating many Servers never trip expvar's
// duplicate-name panic.
var (
	expvarOnce    atomic.Bool
	expvarCurrent atomic.Pointer[Server]
)

func publishExpvar(s *Server) {
	expvarCurrent.Store(s)
	if expvarOnce.CompareAndSwap(false, true) {
		expvar.Publish("sysdl_serve", expvar.Func(func() any {
			if cur := expvarCurrent.Load(); cur != nil {
				return cur.statsSnapshot()
			}
			return nil
		}))
	}
}
