package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
)

// relayDSL is a small deadlock-free three-cell relay used throughout
// the server tests.
const relayDSL = `topology linear 3
cell C1
cell C2
cell C3
message A C1 C2 2
message B C2 C3 2
code C1: W(A) W(A)
code C2: R(A) W(B) R(A) W(B)
code C3: R(B) R(B)
`

// fig7DSL is the paper's §4 queue-induced-deadlock example.
const fig7DSL = `topology linear 4
cell C1
cell C2
cell C3
cell C4
message A C2 C3 4
message B C3 C4 3
message C C1 C4 3
code C1: W(C) W(C) W(C)
code C2: W(A) W(A) W(A) W(A)
code C3: R(A) R(A) R(A) R(A) W(B) W(B) W(B)
code C4: R(C) R(C) R(C) R(B) R(B) R(B)
`

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	out.ReadFrom(resp.Body)
	return resp, out.Bytes()
}

// postRaw posts a pre-encoded body.
func postRaw(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	out.ReadFrom(resp.Body)
	return resp, out.Bytes()
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	}
	return resp
}

func TestAnalyzeEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, body := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{Program: relayDSL})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var ar AnalyzeResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !ar.DeadlockFree || !ar.Strict {
		t.Fatalf("relay misclassified: %+v", ar)
	}
	if ar.MinQueuesDynamic < 1 || ar.MinQueuesStatic < 1 {
		t.Fatalf("queue bounds missing: %+v", ar)
	}
	if len(ar.Labels) != 2 {
		t.Fatalf("want 2 labels, got %+v", ar.Labels)
	}
	if ar.Cached {
		t.Fatal("first analyze claims a cache hit")
	}
	if len(ar.Scenario) != 64 {
		t.Fatalf("scenario %q is not a content hash", ar.Scenario)
	}

	_, body2 := postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{Program: relayDSL})
	var ar2 AnalyzeResponse
	if err := json.Unmarshal(body2, &ar2); err != nil {
		t.Fatalf("decode second: %v", err)
	}
	if !ar2.Cached {
		t.Fatal("second identical analyze was not a cache hit")
	}
	if ar2.Scenario != ar.Scenario {
		t.Fatal("scenario hash changed between identical requests")
	}
}

// TestRunEndpointWorkers: the retired "workers" (run) and
// "run_workers" (sweep) fields are unknown now, so strict decoding
// refuses a body carrying either with 400 "unknown field".
func TestRunEndpointWorkers(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	program, _ := json.Marshal(relayDSL)
	for _, tc := range []struct{ path, field string }{
		{"/v1/run", `"workers":4`},
		{"/v1/sweep", `"run_workers":4`},
	} {
		resp, body := postRaw(t, ts.URL+tc.path, `{"program":`+string(program)+","+tc.field+"}")
		if resp.StatusCode != http.StatusBadRequest || !bytes.Contains(body, []byte("unknown field")) {
			t.Fatalf("%s with %s: status %d, want 400 unknown field: %s", tc.path, tc.field, resp.StatusCode, body)
		}
	}
}

func TestRunEndpointCacheHitAndResults(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	req := RunRequest{Program: relayDSL}

	resp, body := postJSON(t, ts.URL+"/v1/run", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var first RunResponse
	if err := json.Unmarshal(body, &first); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if first.Outcome != "completed" {
		t.Fatalf("relay did not complete: %+v", first)
	}
	if first.Cached {
		t.Fatal("first run claims a cache hit")
	}
	if first.WordsMoved == 0 || first.Cycles == 0 || first.QueuesUsed < 1 {
		t.Fatalf("run counters missing: %+v", first)
	}

	_, body2 := postJSON(t, ts.URL+"/v1/run", req)
	var second RunResponse
	if err := json.Unmarshal(body2, &second); err != nil {
		t.Fatalf("decode second: %v", err)
	}
	if !second.Cached {
		t.Fatal("second identical run was not a cache hit")
	}
	if second.Outcome != first.Outcome || second.Cycles != first.Cycles {
		t.Fatalf("cached run diverged: %+v vs %+v", second, first)
	}

	var stats StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.CacheMisses != 1 {
		t.Fatalf("CacheMisses = %d, want 1", stats.CacheMisses)
	}
	if stats.CacheHits != 1 {
		t.Fatalf("CacheHits = %d, want 1", stats.CacheHits)
	}
	if stats.CacheEntries != 1 {
		t.Fatalf("CacheEntries = %d, want 1", stats.CacheEntries)
	}
	if stats.Requests < 3 {
		t.Fatalf("Requests = %d, want ≥ 3", stats.Requests)
	}

	// The stored result replays the original response byte-for-byte.
	var doc bytes.Buffer
	resp3, err := http.Get(ts.URL + "/v1/results/" + first.ID)
	if err != nil {
		t.Fatalf("GET results: %v", err)
	}
	defer resp3.Body.Close()
	doc.ReadFrom(resp3.Body)
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("results status %d", resp3.StatusCode)
	}
	if doc.String() != string(body) {
		t.Fatalf("stored result differs:\n%q\nvs\n%q", doc.String(), string(body))
	}
}

// TestCanonicalAliasing: a textually different but structurally
// identical program must hit the canonical cache — one compile total.
func TestCanonicalAliasing(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	variant := "# same scenario, different text\n" + strings.ReplaceAll(relayDSL, "\n", "\n\n")
	postJSON(t, ts.URL+"/v1/run", RunRequest{Program: relayDSL})
	_, body := postJSON(t, ts.URL+"/v1/run", RunRequest{Program: variant})
	var rr RunResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !rr.Cached {
		t.Fatal("structurally identical program missed the canonical cache")
	}
	var stats StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.CacheMisses != 1 {
		t.Fatalf("CacheMisses = %d, want 1 (one compile for both texts)", stats.CacheMisses)
	}
}

// TestAnalyzeOptionsSplitTheCache: the same program under different
// analysis options is a different scenario.
func TestAnalyzeOptionsSplitTheCache(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{Program: relayDSL})
	postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{Program: relayDSL, Analyze: AnalyzeSpec{Lookahead: true, Capacity: 2}})
	var stats StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.CacheMisses != 2 {
		t.Fatalf("CacheMisses = %d, want 2 (options are part of the key)", stats.CacheMisses)
	}
}

// TestCapacityWithoutLookaheadSharesTheCache: the analysis reads its
// capacity only under lookahead, so without it a capacity is the same
// scenario as none — one compile, one LRU slot — while a negative one
// is still refused.
func TestCapacityWithoutLookaheadSharesTheCache(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	postJSON(t, ts.URL+"/v1/run", RunRequest{Program: relayDSL})
	resp, body := postRaw(t, ts.URL+"/v1/run", fmt.Sprintf(`{"program": %q, "analyze": {"capacity": 2}}`, relayDSL))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var rr RunResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !rr.Cached {
		t.Error("a capacity without lookahead missed the cache entry of the same program without one")
	}
	var stats StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.CacheMisses != 1 || stats.CacheEntries != 1 {
		t.Errorf("CacheMisses = %d, CacheEntries = %d, want 1 and 1", stats.CacheMisses, stats.CacheEntries)
	}
	resp, body = postRaw(t, ts.URL+"/v1/run", fmt.Sprintf(`{"program": %q, "analyze": {"capacity": -1}}`, relayDSL))
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "negative capacity -1") {
		t.Errorf("negative analysis capacity: status %d, body %s; want 400 naming it", resp.StatusCode, body)
	}
}

func TestRunReportsDeadlock(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, body := postJSON(t, ts.URL+"/v1/run", RunRequest{
		Program: fig7DSL, Policy: "fcfs", Queues: 1, Force: true,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var rr RunResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if rr.Outcome != "deadlocked" {
		t.Fatalf("fig7 under FCFS/1 queue should deadlock, got %q", rr.Outcome)
	}
	if len(rr.Blocked) == 0 {
		t.Fatal("deadlocked run reports no blocked cells")
	}
	// The paper's default policy completes the same scenario.
	_, body2 := postJSON(t, ts.URL+"/v1/run", RunRequest{Program: fig7DSL})
	var ok RunResponse
	if err := json.Unmarshal(body2, &ok); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if ok.Outcome != "completed" {
		t.Fatalf("compatible policy should complete fig7, got %q", ok.Outcome)
	}
	if !ok.Cached {
		t.Fatal("second fig7 request should reuse the compiled scenario")
	}
}

// TestRunEndpointFaults: the run endpoint's faults field degrades the
// array — a periodic plan completes late but completes, the response
// echoes the active faults and the gated-operation count, and bad
// specs are 400s. A factor-1 plan must answer byte-identically to no
// plan at all (modulo the response ID).
func TestRunEndpointFaults(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, body := postJSON(t, ts.URL+"/v1/run", RunRequest{
		Program: relayDSL, Faults: "cell:1:slow=2,link:0:slow=3@4",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var faulted RunResponse
	if err := json.Unmarshal(body, &faulted); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if faulted.Outcome != "completed" {
		t.Fatalf("periodic faults should only delay, got %q", faulted.Outcome)
	}
	if want := []string{"cell:1:slow=2", "link:0:slow=3@4"}; !reflect.DeepEqual(faulted.Faults, want) {
		t.Fatalf("faults echoed as %v, want %v", faulted.Faults, want)
	}
	if faulted.GatedOps == 0 {
		t.Fatal("degraded run reports zero gated operations")
	}

	_, clean := postJSON(t, ts.URL+"/v1/run", RunRequest{Program: relayDSL})
	_, noop := postJSON(t, ts.URL+"/v1/run", RunRequest{Program: relayDSL, Faults: "cell:0:slow=1"})
	var cr, nr RunResponse
	if err := json.Unmarshal(clean, &cr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if err := json.Unmarshal(noop, &nr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	cr.ID, nr.ID = "", ""
	if !reflect.DeepEqual(cr, nr) {
		t.Fatalf("factor-1 plan changed the response:\n%+v\nvs\n%+v", cr, nr)
	}
	if cr.Cycles >= faulted.Cycles {
		t.Fatalf("slowdown did not slow the run: clean %d cycles, faulted %d", cr.Cycles, faulted.Cycles)
	}

	if resp, body := postJSON(t, ts.URL+"/v1/run", RunRequest{Program: relayDSL, Faults: "cell:0:melted"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed spec: status %d: %s", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, ts.URL+"/v1/run", RunRequest{Program: relayDSL, Faults: "cell:99:dead"}); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("ill-fitting plan: status %d: %s", resp.StatusCode, body)
	}
}

// TestRunEndpointHugeCounts: a capacity far beyond the program's
// largest message is served (no ring is sized by it), and a queue
// count whose total over the links overflows is a 400.
func TestRunEndpointHugeCounts(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	if resp, body := postJSON(t, ts.URL+"/v1/run", RunRequest{Program: relayDSL, Capacity: 1 << 34}); resp.StatusCode != http.StatusOK {
		t.Fatalf("capacity 2^34: status %d: %s", resp.StatusCode, body)
	}
	for _, queues := range []int{100000000, 1<<62 + 1} {
		if resp, body := postJSON(t, ts.URL+"/v1/run", RunRequest{Program: relayDSL, Queues: queues}); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("queues %d: status %d: %s", queues, resp.StatusCode, body)
		}
	}
}

// TestRunEndpointDeadCellDeadlocks: a dead cell mid-relay starves its
// consumer — the run deadlocks and the blocked report names the stall.
func TestRunEndpointDeadCellDeadlocks(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, body := postJSON(t, ts.URL+"/v1/run", RunRequest{
		Program: relayDSL, Faults: "cell:1:dead",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var rr RunResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if rr.Outcome != "deadlocked" {
		t.Fatalf("dead relay cell should deadlock the run, got %q", rr.Outcome)
	}
	if len(rr.Blocked) == 0 {
		t.Fatal("deadlocked run reports no blocked cells")
	}
	if want := []string{"cell:1:dead"}; !reflect.DeepEqual(rr.Faults, want) {
		t.Fatalf("faults echoed as %v, want %v", rr.Faults, want)
	}
}

// TestSweepEndpointFaults: the sweep endpoint's faults field degrades
// every grid point, and ill-fitting plans refuse the whole sweep with
// 400 before any streaming commitment.
func TestSweepEndpointFaults(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	req := SweepRequest{
		Program:    relayDSL,
		Policies:   []string{"compatible"},
		Queues:     []int{2},
		Capacities: []int{1},
		Lookaheads: []int{0},
		Seed:       1,
	}
	_, clean := postJSON(t, ts.URL+"/v1/sweep", req)
	req.Faults = "cell:1:slow=3"
	resp, faulted := postJSON(t, ts.URL+"/v1/sweep", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, faulted)
	}
	var cr, fr SweepResponse
	if err := json.Unmarshal(clean, &cr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if err := json.Unmarshal(faulted, &fr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(fr.Outcomes) != 1 || fr.Outcomes[0].Result != "completed" {
		t.Fatalf("faulted sweep outcomes: %+v", fr.Outcomes)
	}
	if cr.Outcomes[0].Cycles >= fr.Outcomes[0].Cycles {
		t.Fatalf("slowdown did not slow the grid point: clean %d cycles, faulted %d",
			cr.Outcomes[0].Cycles, fr.Outcomes[0].Cycles)
	}

	req.Faults = "cell:99:dead"
	if resp, body := postJSON(t, ts.URL+"/v1/sweep", req); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("ill-fitting plan: status %d: %s", resp.StatusCode, body)
	}
	req.Faults = "link:0:dead"
	if resp, body := postJSON(t, ts.URL+"/v1/sweep", req); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed spec: status %d: %s", resp.StatusCode, body)
	}
}

func TestSweepEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, body := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{
		Program:    fig7DSL,
		Policies:   []string{"fcfs", "compatible"},
		Queues:     []int{1, 2},
		Capacities: []int{1},
		Lookaheads: []int{0},
		Seed:       1,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr SweepResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(sr.Outcomes) != 4 {
		t.Fatalf("want 4 grid points, got %d", len(sr.Outcomes))
	}
	if sr.Table == "" {
		t.Fatal("sweep table missing")
	}
	var sawDeadlock, sawCompleted bool
	for _, o := range sr.Outcomes {
		switch o.Result {
		case "deadlocked":
			sawDeadlock = true
		case "completed":
			sawCompleted = true
		}
	}
	if !sawDeadlock || !sawCompleted {
		t.Fatalf("sweep should contrast deadlock and completion: %+v", sr.Outcomes)
	}
	if sr.Cached {
		t.Fatal("first sweep claims a cache hit")
	}
	if len(sr.Scenario) != 64 {
		t.Fatalf("scenario %q is not a content hash", sr.Scenario)
	}

	// A repeated sweep is served from the compiled-scenario cache: no
	// recompiles, cacheHits advances.
	var before StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &before)
	_, body2 := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{
		Program:    fig7DSL,
		Policies:   []string{"fcfs", "compatible"},
		Queues:     []int{1, 2},
		Capacities: []int{1},
		Lookaheads: []int{0},
		Seed:       1,
	})
	var sr2 SweepResponse
	if err := json.Unmarshal(body2, &sr2); err != nil {
		t.Fatalf("decode second: %v", err)
	}
	if !sr2.Cached {
		t.Fatal("repeated sweep did not hit the scenario cache")
	}
	var after StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &after)
	if after.CacheHits <= before.CacheHits {
		t.Fatalf("CacheHits did not advance on a repeated sweep: %d → %d", before.CacheHits, after.CacheHits)
	}
	if after.CacheMisses != before.CacheMisses {
		t.Fatalf("repeated sweep recompiled: misses %d → %d", before.CacheMisses, after.CacheMisses)
	}

	// The sweep's strict (lookahead 0) analysis is the same cache entry
	// a default /v1/run uses — the cache is shared across endpoints.
	_, rbody := postJSON(t, ts.URL+"/v1/run", RunRequest{Program: fig7DSL})
	var rr RunResponse
	if err := json.Unmarshal(rbody, &rr); err != nil {
		t.Fatalf("decode run: %v", err)
	}
	if !rr.Cached {
		t.Fatal("default run after a sweep missed the shared cache entry")
	}
}

func TestEvictionBound(t *testing.T) {
	_, ts := newTestServer(t, Options{CacheSize: 1})
	programs := []string{relayDSL, fig7DSL, relayDSL}
	for _, p := range programs {
		postJSON(t, ts.URL+"/v1/analyze", AnalyzeRequest{Program: p})
	}
	var stats StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.CacheEntries != 1 {
		t.Fatalf("CacheEntries = %d, want 1 (bound)", stats.CacheEntries)
	}
	if stats.CacheEvictions < 2 {
		t.Fatalf("CacheEvictions = %d, want ≥ 2", stats.CacheEvictions)
	}
	if stats.CacheMisses != 3 {
		t.Fatalf("CacheMisses = %d, want 3 (relay was evicted and recompiled)", stats.CacheMisses)
	}
}

func TestRequestErrors(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cases := []struct {
		name     string
		method   string
		path     string
		body     string
		wantCode int
	}{
		{"bad json", "POST", "/v1/run", "{", http.StatusBadRequest},
		{"unknown field", "POST", "/v1/run", `{"programme": "x"}`, http.StatusBadRequest},
		{"unparseable program", "POST", "/v1/run", `{"program": "frobnicate 3"}`, http.StatusBadRequest},
		{"unknown policy", "POST", "/v1/run", fmt.Sprintf(`{"program": %q, "policy": "nice"}`, relayDSL), http.StatusBadRequest},
		{"negative lookahead", "POST", "/v1/sweep", fmt.Sprintf(`{"program": %q, "lookaheads": [-1, 0]}`, relayDSL), http.StatusBadRequest},
		{"under-budget without force", "POST", "/v1/run", fmt.Sprintf(`{"program": %q, "queues": 1, "policy": "static"}`, fig7DSL), http.StatusUnprocessableEntity},
		{"oversized body", "POST", "/v1/run", `{"program": "` + strings.Repeat("x", maxBodyBytes) + `"}`, http.StatusRequestEntityTooLarge},
		{"missing result", "GET", "/v1/results/r-99999999", "", http.StatusNotFound},
		{"wrong method", "GET", "/v1/run", "", http.StatusMethodNotAllowed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.path, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.wantCode {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.wantCode)
			}
		})
	}
}

// TestRunSetupRejections: run options only the machine can judge are
// validated once, at run setup, and come back as the machine's
// ConfigError text with 400. Theorem 1 is core's check and runs first,
// so a request that is also under budget reports that (422).
func TestRunSetupRejections(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cases := []struct {
		name string
		req  RunRequest
		code int
		want string
	}{
		{"negative capacity", RunRequest{Program: relayDSL, Capacity: -1}, http.StatusBadRequest, "machine: config Capacity: negative capacity -1"},
		{"fault out of range", RunRequest{Program: relayDSL, Faults: "cell:99:dead"}, http.StatusBadRequest, "machine: config Faults: cell 99 out of range"},
		{"link override out of range", RunRequest{Program: relayDSL, LinkModel: "fixed,link:99:delay=2"}, http.StatusBadRequest, "machine: config LinkModel: link model: link 99 out of range"},
		{"under budget and bad capacity", RunRequest{Program: fig7DSL, Policy: "static", Queues: 1, Capacity: -1}, http.StatusUnprocessableEntity, "required for static assignment"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+"/v1/run", tc.req)
			var e ErrorResponse
			if resp.StatusCode != tc.code || json.Unmarshal(body, &e) != nil || !strings.Contains(e.Error, tc.want) {
				t.Fatalf("status %d %s, want %d with %q", resp.StatusCode, body, tc.code, tc.want)
			}
		})
	}
}

// TestRunRejectsOversizedTopology: the body bound limits the text, not
// what the text asks for — a 40-byte topology directive used to make
// the parser build a multi-gigabyte array before anything looked at the
// sizes. The parser rejects it from the directive's line, so the
// daemon's answer is a prompt 400 carrying the parse error.
func TestRunRejectsOversizedTopology(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cases := []struct{ directive, want string }{
		{"topology mesh 3037000500 3037000500", "line 1: topology mesh declares more than 65536 cells"},
		{"topology linear -3", "line 1: topology size -3 is less than 1"},
	}
	for _, tc := range cases {
		start := time.Now()
		resp, body := postJSON(t, ts.URL+"/v1/run", RunRequest{
			Program: tc.directive + "\ncell a\ncell b\nmessage m a b 1\ncode a: W(m)\ncode b: R(m)\n",
		})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400: %s", tc.directive, resp.StatusCode, body)
		}
		var e ErrorResponse
		if err := json.Unmarshal(body, &e); err != nil || !strings.Contains(e.Error, tc.want) {
			t.Errorf("%s: error body %s (%v), want it to carry %q", tc.directive, body, err, tc.want)
		}
		// Building the array would take minutes (or the process); the
		// bound only has to tell "rejected" from "attempted".
		if d := time.Since(start); d > 5*time.Second {
			t.Errorf("%s: rejected only after %v", tc.directive, d)
		}
	}
}

func TestStatsEndpointShape(t *testing.T) {
	s, ts := newTestServer(t, Options{MaxConcurrency: 3})
	var stats StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.MaxConcurrency != 3 {
		t.Fatalf("MaxConcurrency = %d, want 3", stats.MaxConcurrency)
	}
	if stats.InFlightRuns != 0 {
		t.Fatalf("InFlightRuns = %d at rest", stats.InFlightRuns)
	}
	if got := s.statsSnapshot(); got.MaxConcurrency != 3 {
		t.Fatalf("snapshot disagrees: %+v", got)
	}
}
