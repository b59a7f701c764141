package server

// The body level of the scenario cache: a repeated identical /v1/run or
// /v1/analyze body is answered with the bytes its last run encoded.
// These tests hold the recorded replies to the recomputed ones, to
// their entries' lifetime, to the tenant that asked, and to the
// counters the levels below already kept.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// pipeDSL is a third small program, for tests that need more programs
// than the cache holds.
const pipeDSL = `topology linear 2
cell P1
cell P2
message M P1 P2 3
code P1: W(M) W(M) W(M)
code P2: R(M) R(M) R(M)
`

// splitReply cuts a response document into its id and everything after
// the id value — the part a recorded reply must reproduce.
func splitReply(t *testing.T, doc []byte) (id string, tail []byte) {
	t.Helper()
	rest, ok := bytes.CutPrefix(doc, []byte(idOpen))
	if !ok {
		t.Fatalf("response does not open with its id: %s", doc)
	}
	i := bytes.IndexByte(rest, '"')
	if i < 0 {
		t.Fatalf("unterminated id: %s", doc)
	}
	return string(rest[:i]), rest[i:]
}

// post sends a pre-encoded body and demands a 200.
func post(t *testing.T, url string, body []byte) []byte {
	t.Helper()
	resp, got := postRaw(t, url, string(body))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", url, resp.StatusCode, got)
	}
	return got
}

// checkRepliesResident asserts the body level's structural invariant:
// every recorded reply hangs off an entry that is still in the cache,
// and the entries' own lists account for every one of them.
func checkRepliesResident(t *testing.T, c *scenarioCache) {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, r := range c.byBody {
		e := r.el.Value.(*entry)
		if c.byCanon[e.canon] != r.el {
			t.Fatalf("reply %x outlived its entry %s", key[:4], e.scenario[:8])
		}
	}
	listed := 0
	for el := c.ll.Front(); el != nil; el = el.Next() {
		listed += len(el.Value.(*entry).bodyKeys)
	}
	if listed != len(c.byBody) {
		t.Fatalf("entries list %d replies, the index holds %d", listed, len(c.byBody))
	}
}

// replyMixes is sixteen option mixes in the shape of the serve-hit
// workload's: ten compatible runs, three static, three FCFS (which may
// deadlock, and must then list the blocked cells), with faults and link
// models among them.
func replyMixes(program string, ar AnalyzeResponse) []RunRequest {
	dyn, static := ar.MinQueuesDynamic, ar.MinQueuesStatic
	const fixed, congestion = "fixed,delay=2", "congestion,delay=1,threshold=2,max=3"
	mixes := []RunRequest{
		{Capacity: 1},
		{Queues: dyn, Capacity: 2},
		{Queues: dyn + 1, Capacity: 3},
		{Capacity: 2, Faults: "cell:1:slow=2"},
		{Queues: dyn, Capacity: 1, LinkModel: fixed},
		{Capacity: 3, LinkModel: congestion},
		{Queues: dyn + 1, Capacity: 1, Faults: "cell:0:slow=3,link:0:slow=2"},
		{Capacity: 2, Seed: 7},
		{Queues: dyn, Capacity: 3},
		{Capacity: 1, Faults: "cell:1:slow=3", LinkModel: fixed},
		{Policy: "static", Capacity: 1},
		{Policy: "static", Queues: static, Capacity: 2},
		{Policy: "static", Capacity: 2, LinkModel: fixed},
		{Policy: "fcfs", Queues: 1, Capacity: 1},
		{Policy: "fcfs", Queues: 2, Capacity: 2},
		{Policy: "fcfs", Queues: 3, Capacity: 1, Faults: "cell:1:slow=2"},
	}
	for i := range mixes {
		mixes[i].Program = program
	}
	return mixes
}

// TestReplyAliasEquivalence: for every request of the option table and
// for /v1/analyze, the third identical post — answered from the
// recorded reply — carries, after the id, exactly the bytes of a
// re-spaced body's reply, which misses the body level and is
// recomputed; and the id of a recorded-reply answer replays the bytes
// that were sent.
func TestReplyAliasEquivalence(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	sawBlocked, sawFaults, sawLinkModel := false, false, false
	check := func(name, path string, body []byte) {
		t.Helper()
		url := ts.URL + path
		post(t, url, body)
		second := post(t, url, body)
		before := s.cache.replyHits.Load()
		third := post(t, url, body)
		if got := s.cache.replyHits.Load() - before; got != 1 {
			t.Fatalf("%s: third identical post made %d reply hits, want 1", name, got)
		}
		respaced := append(append([]byte(" \n\t"), body...), "\r\n "...)
		before = s.cache.replyHits.Load()
		recomputed := post(t, url, respaced)
		if got := s.cache.replyHits.Load() - before; got != 0 {
			t.Fatalf("%s: a re-spaced body was answered from a recorded reply", name)
		}
		id3, tail3 := splitReply(t, third)
		idR, tailR := splitReply(t, recomputed)
		_, tail2 := splitReply(t, second)
		if !bytes.Equal(tail3, tailR) {
			t.Fatalf("%s: recorded reply differs from the recomputed one:\n%s\nvs\n%s", name, tail3, tailR)
		}
		if !bytes.Equal(tail2, tail3) {
			t.Fatalf("%s: second and third replies differ:\n%s\nvs\n%s", name, tail2, tail3)
		}
		if id3 == idR {
			t.Fatalf("%s: two replies share id %s", name, id3)
		}
		if !bytes.Contains(tail3, []byte(`"cached":true`)) {
			t.Fatalf("%s: a repeat does not say cached: %s", name, third)
		}
		resp, err := http.Get(ts.URL + "/v1/results/" + id3)
		if err != nil {
			t.Fatal(err)
		}
		stored, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !bytes.Equal(stored, third) {
			t.Fatalf("%s: GET /v1/results/%s (status %d) does not replay the sent bytes:\n%q\nvs\n%q", name, id3, resp.StatusCode, stored, third)
		}
		sawBlocked = sawBlocked || bytes.Contains(third, []byte(`"blocked":[`))
		sawFaults = sawFaults || bytes.Contains(third, []byte(`"faults":[`))
		sawLinkModel = sawLinkModel || bytes.Contains(third, []byte(`"linkModel":"`))
	}
	for pi, program := range []string{relayDSL, fig7DSL} {
		abody := mustJSON(t, AnalyzeRequest{Program: program})
		var ar AnalyzeResponse
		if err := json.Unmarshal(post(t, ts.URL+"/v1/analyze", abody), &ar); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("program %d analyze", pi), "/v1/analyze", abody)
		for mi, rr := range replyMixes(program, ar) {
			check(fmt.Sprintf("program %d mix %d", pi, mi), "/v1/run", mustJSON(t, rr))
		}
	}
	if !sawBlocked || !sawFaults || !sawLinkModel {
		t.Fatalf("the table did not cover a deadlock (%v), a fault plan (%v) and a link model (%v)", sawBlocked, sawFaults, sawLinkModel)
	}
	checkRepliesResident(t, s.cache)
	if st := s.statsSnapshot(); st.CacheMisses != 2 || st.ReplyEntries == 0 || st.ReplyHits > st.CacheHits {
		t.Fatalf("stats after the table: %+v", st)
	}
}

// TestReplyLifetime: a one-entry cache and two alternating programs.
// No reply outlives its entry — the post after an eviction recompiles
// and says so — and misses and evictions count exactly as they did
// before there was a body level.
func TestReplyLifetime(t *testing.T) {
	s, ts := newTestServer(t, Options{CacheSize: 1})
	a := mustJSON(t, RunRequest{Program: relayDSL})
	b := mustJSON(t, RunRequest{Program: fig7DSL})
	steps := []struct {
		body                       []byte
		cached                     bool
		hits, misses, evictions    int64
		replyHits                  int64
		replyEntries, cacheEntries int
	}{
		{a, false, 0, 1, 0, 0, 0, 1}, // compile
		{a, true, 1, 1, 0, 0, 1, 1},  // alias hit, recorded
		{a, true, 2, 1, 0, 1, 1, 1},  // reply hit
		{b, false, 2, 2, 1, 1, 0, 1}, // evicts a, and a's reply with it
		{a, false, 2, 3, 2, 1, 0, 1}, // so a recompiles
		{a, true, 3, 3, 2, 1, 1, 1},
		{a, true, 4, 3, 2, 2, 1, 1},
		{b, false, 4, 4, 3, 2, 0, 1},
	}
	for i, st := range steps {
		var rr RunResponse
		if err := json.Unmarshal(post(t, ts.URL+"/v1/run", st.body), &rr); err != nil {
			t.Fatal(err)
		}
		if rr.Cached != st.cached || rr.Outcome != "completed" {
			t.Fatalf("step %d: cached %v outcome %q, want cached %v completed", i, rr.Cached, rr.Outcome, st.cached)
		}
		got := s.statsSnapshot()
		want := got
		want.CacheHits, want.CacheMisses, want.CacheEvictions = st.hits, st.misses, st.evictions
		want.ReplyHits, want.ReplyEntries, want.CacheEntries = st.replyHits, st.replyEntries, st.cacheEntries
		if got != want {
			t.Fatalf("step %d: stats %+v, want %+v", i, got, want)
		}
		checkRepliesResident(t, s.cache)
	}
}

// TestReplyBoundPerEntry: an entry keeps only its most recently
// recorded replies.
func TestReplyBoundPerEntry(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	post(t, ts.URL+"/v1/run", mustJSON(t, RunRequest{Program: relayDSL}))
	bodies := make([][]byte, 70)
	for i := range bodies {
		bodies[i] = mustJSON(t, RunRequest{Program: relayDSL, Seed: int64(i + 1)})
		post(t, ts.URL+"/v1/run", bodies[i]) // an alias hit: recorded
	}
	if got := s.statsSnapshot().ReplyEntries; got != 64 {
		t.Fatalf("ReplyEntries = %d after 70 distinct bodies of one program, want the bound 64", got)
	}
	checkRepliesResident(t, s.cache)
	before := s.cache.replyHits.Load()
	post(t, ts.URL+"/v1/run", bodies[0])  // dropped as the oldest: recomputed, and recorded again
	post(t, ts.URL+"/v1/run", bodies[69]) // still held
	if got := s.cache.replyHits.Load() - before; got != 1 {
		t.Fatalf("oldest and newest body made %d reply hits, want 1 (the newest)", got)
	}
}

// TestReplyTenancy: the tier's cycle bound is part of the key, the
// tenant gate stands in front of the body level, and only 200s are
// recorded.
func TestReplyTenancy(t *testing.T) {
	s, ts := newTestServer(t, Options{TenantsFile: writeTenants(t, `{
	  "tiers": {
	    "capped": {"maxCycles": 3},
	    "drip":   {"requestsPerSec": 0.001, "burst": 2}
	  },
	  "tenants": {
	    "key-free":   {"name": "free"},
	    "key-capped": {"name": "capped", "tier": "capped"},
	    "key-drip":   {"name": "drip", "tier": "drip"}
	  }
	}`)})
	run := func(key string, req RunRequest, wantCode int) RunResponse {
		t.Helper()
		resp, body := postJSONAuth(t, ts.URL+"/v1/run", key, req)
		if resp.StatusCode != wantCode {
			t.Fatalf("%s: status %d, want %d: %s", key, resp.StatusCode, wantCode, body)
		}
		var rr RunResponse
		if wantCode == http.StatusOK {
			if err := json.Unmarshal(body, &rr); err != nil {
				t.Fatal(err)
			}
		}
		return rr
	}
	x := RunRequest{Program: relayDSL}

	// An unbounded tenant — cycle bound 0, as the anonymous caller's —
	// warms the body up to a recorded reply.
	for i := 0; i < 3; i++ {
		if rr := run("key-free", x, http.StatusOK); rr.Outcome != "completed" {
			t.Fatalf("unbounded run %d: %+v", i, rr)
		}
	}
	if got := s.cache.replyHits.Load(); got != 1 {
		t.Fatalf("replyHits = %d after three identical posts, want 1", got)
	}
	// The same body under a 3-cycle tier is another question with
	// another answer, first time and every time.
	for i := 0; i < 3; i++ {
		if rr := run("key-capped", x, http.StatusOK); rr.Outcome != "timed-out" {
			t.Fatalf("capped run %d got the unbounded tenant's answer: %+v", i, rr)
		}
	}
	if rr := run("key-free", x, http.StatusOK); rr.Outcome != "completed" {
		t.Fatalf("unbounded run after the capped ones: %+v", rr)
	}
	if got := s.cache.replyHits.Load(); got != 4 {
		t.Fatalf("replyHits = %d, want 4 (two unbounded repeats, two capped)", got)
	}

	// A rate-limited tenant is refused at the gate, recorded reply or not.
	run("key-drip", x, http.StatusOK)
	run("key-drip", x, http.StatusOK)
	hits := s.cache.replyHits.Load()
	run("key-drip", x, http.StatusTooManyRequests)
	if got := s.cache.replyHits.Load(); got != hits {
		t.Fatal("a rate-limited request reached the body level")
	}

	// Refusals are never recorded: each repeats as itself.
	replies := s.statsSnapshot().ReplyEntries
	for _, tc := range []struct {
		key  string
		req  RunRequest
		code int
	}{
		{"key-free", RunRequest{Program: relayDSL, Policy: "nice"}, http.StatusBadRequest},
		{"key-free", RunRequest{Program: fig7DSL, Policy: "static", Queues: 1}, http.StatusUnprocessableEntity},
		{"key-capped", RunRequest{Program: relayDSL, MaxCycles: 1000}, http.StatusTooManyRequests},
	} {
		for i := 0; i < 3; i++ {
			run(tc.key, tc.req, tc.code)
		}
	}
	if got := s.statsSnapshot(); got.ReplyEntries != replies || got.ReplyHits != hits {
		t.Fatalf("refusals moved the body level: %d → %d entries, %d → %d hits", replies, got.ReplyEntries, hits, got.ReplyHits)
	}
	checkRepliesResident(t, s.cache)
}

// TestConcurrentReplyHitsAndEvictions is the 200-client test's sibling
// for the body level: eight clients post three programs at a two-entry
// cache, so reply hits, recordings and evictions interleave. Every
// reply must equal the one an unhurried daemon gives, and the counters
// must still add up. Run it under -race.
func TestConcurrentReplyHitsAndEvictions(t *testing.T) {
	programs := []string{relayDSL, fig7DSL, pipeDSL}
	type variant struct {
		body []byte
		want RunResponse
	}
	var variants []variant
	_, ref := newTestServer(t, Options{})
	for _, p := range programs {
		for _, rr := range []RunRequest{{Program: p}, {Program: p, Capacity: 2}, {Program: p, Policy: "fcfs", Queues: 1}} {
			v := variant{body: mustJSON(t, rr)}
			if err := json.Unmarshal(post(t, ref.URL+"/v1/run", v.body), &v.want); err != nil {
				t.Fatal(err)
			}
			v.want.ID, v.want.Cached = "", false
			variants = append(variants, v)
		}
	}

	s, ts := newTestServer(t, Options{CacheSize: 2, MaxConcurrency: 4})
	const clients, perClient = 8, 60
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				// Runs of one variant, so that it is recorded and hit, between
				// moves to another program, so that entries are evicted.
				v := variants[(c+i/4)%len(variants)]
				resp, err := http.Post(ts.URL+"/v1/run", "application/json", bytes.NewReader(v.body))
				if err != nil {
					errs[c] = errAt(c, i, err.Error())
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				var got RunResponse
				if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &got) != nil {
					errs[c] = errAt(c, i, fmt.Sprintf("status %d: %s", resp.StatusCode, body))
					return
				}
				got.ID, got.Cached = "", false
				if !reflect.DeepEqual(got, v.want) {
					errs[c] = errAt(c, i, fmt.Sprintf("reply %+v, want %+v", got, v.want))
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	checkRepliesResident(t, s.cache)
	st := s.statsSnapshot()
	if st.CacheHits+st.CacheMisses != clients*perClient {
		t.Fatalf("hits %d + misses %d != %d requests", st.CacheHits, st.CacheMisses, clients*perClient)
	}
	if st.ReplyHits == 0 || st.CacheEvictions == 0 {
		t.Fatalf("the mix exercised %d reply hits and %d evictions; it needs both", st.ReplyHits, st.CacheEvictions)
	}
	if st.CacheEntries > 2 || st.InFlightRuns != 0 {
		t.Fatalf("after drain: %+v", st)
	}
}

// rewindBody is a request body a test can send again without
// allocating a new request.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

// replyHitHarness warms one body up to a recorded reply and returns a
// function that posts it once more through the handler — the daemon's
// whole hit path except net/http's connection handling.
func replyHitHarness(tb testing.TB) (s *Server, hit func()) {
	s = New(Options{})
	h := s.Handler()
	payload, err := json.Marshal(RunRequest{Program: relayDSL, Queues: 1, Capacity: 1})
	if err != nil {
		tb.Fatal(err)
	}
	body := new(rewindBody)
	req := httptest.NewRequest("POST", "/v1/run", nil)
	req.Body = body
	rec := httptest.NewRecorder()
	hit = func() {
		body.Reset(payload)
		rec.Body.Reset()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			tb.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	for i := 0; i < 3; i++ { // compile, alias hit (recorded), reply hit
		hit()
	}
	if s.cache.replyHits.Load() != 1 {
		tb.Fatalf("warm-up made %d reply hits, want 1", s.cache.replyHits.Load())
	}
	return s, hit
}

// TestServeReplyHitAllocGate: a repeated request costs the handler a
// small constant — the body reader's bound, the id, the document, the
// header value and the result store's bookkeeping — whatever the
// program is.
func TestServeReplyHitAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	s, hit := replyHitHarness(t)
	before := s.cache.replyHits.Load()
	allocs := testing.AllocsPerRun(500, hit)
	t.Logf("handler-level reply hit: %.1f allocs/op", allocs)
	if allocs > 8 {
		t.Fatalf("a reply hit costs %.1f allocs/op at the handler, more than 8", allocs)
	}
	if got := s.cache.replyHits.Load() - before; got != 501 {
		t.Fatalf("measured %d reply hits in 501 posts", got)
	}
	if s.cache.misses.Load() != 1 || s.limiter.InUse() != 0 {
		t.Fatalf("the gate was not pure reply hits: %+v", s.statsSnapshot())
	}
}

// TestStrictBodies: a request body is exactly one JSON object. What
// follows it — once silently ignored — is a 400 on every POST route;
// surrounding whitespace is not.
func TestStrictBodies(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	obj := string(mustJSON(t, map[string]string{"program": relayDSL}))
	cases := []struct {
		name, body string
		code       int
	}{
		{"exact", obj, http.StatusOK},
		{"trailing newline", obj + "\n", http.StatusOK},
		{"surrounding whitespace", " \t" + obj + " \r\n\t ", http.StatusOK},
		{"trailing object", obj + obj, http.StatusBadRequest},
		{"trailing object after newline", obj + "\n{}", http.StatusBadRequest},
		{"trailing text", obj + " trailing-garbage", http.StatusBadRequest},
		{"trailing bracket", obj + "]", http.StatusBadRequest},
		{"empty", "", http.StatusBadRequest},
	}
	for _, path := range []string{"/v1/analyze", "/v1/run", "/v1/sweep", "/v1/sweep?stream=1"} {
		for _, tc := range cases {
			for round := 0; round < 2; round++ { // a repeat gets the same answer
				resp, body := postRaw(t, ts.URL+path, tc.body)
				if resp.StatusCode != tc.code {
					t.Errorf("%s %s (round %d): status %d, want %d: %s", path, tc.name, round, resp.StatusCode, tc.code, body)
				}
				if tc.code == http.StatusBadRequest && !strings.Contains(string(body), "bad request body") {
					t.Errorf("%s %s: error does not name the body: %s", path, tc.name, body)
				}
			}
		}
	}
}
