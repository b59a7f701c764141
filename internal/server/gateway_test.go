package server

// Gateway-layer coverage: admission control and load shedding, the
// panic slot-leak regression, per-tenant quotas, and streaming sweep
// responses.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"systolic/internal/sweep"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// postJSONAuth posts with an API key in the Authorization header.
func postJSONAuth(t *testing.T, url, key string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	req, err := http.NewRequest("POST", url, bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if key != "" {
		req.Header.Set("Authorization", "Bearer "+key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	out.ReadFrom(resp.Body)
	return resp, out.Bytes()
}

// TestAdmissionControl saturates a -max-concurrency 1 daemon with one
// slow run, fills the single-waiter pool with a second, and asserts
// the overflow — a run and a sweep — is shed with 429 + Retry-After
// while the shed/queue-depth counters advance. Releasing the slow run
// drains the pool and every admitted request completes.
func TestAdmissionControl(t *testing.T) {
	hold := make(chan struct{})
	testHookAcquired = func() { <-hold }
	t.Cleanup(func() { testHookAcquired = nil })

	s, ts := newTestServer(t, Options{MaxConcurrency: 1, QueueWait: 1})

	type result struct {
		code int
		body string
	}
	results := make(chan result, 2)
	post := func() {
		resp, body := postJSONRaw(ts.URL+"/v1/run", RunRequest{Program: relayDSL})
		if resp == nil {
			results <- result{0, "transport failure"}
			return
		}
		results <- result{resp.StatusCode, string(body)}
	}
	go post() // acquires the only slot, parks in the hook
	waitFor(t, "the slot holder", func() bool { return s.limiter.InUse() == 1 })
	go post() // joins the bounded wait pool
	waitFor(t, "a waiter in the pool", func() bool { return s.adm.waiting.Load() == 1 })

	// Pool full: a run is shed with 429 and a Retry-After estimate.
	resp, body := postJSON(t, ts.URL+"/v1/run", RunRequest{Program: relayDSL})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow run: status %d, want 429: %s", resp.StatusCode, body)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("overflow run: Retry-After %q, want an integer ≥ 1", resp.Header.Get("Retry-After"))
	}
	if !bytes.Contains(body, []byte("saturated")) {
		t.Fatalf("shed error is not saturation-scoped: %s", body)
	}

	// A sweep is shed at the same gate (request-level probe).
	resp, body = postJSON(t, ts.URL+"/v1/sweep", SweepRequest{Program: relayDSL, Lookaheads: []int{0}})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow sweep: status %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("overflow sweep: no Retry-After header")
	}

	var stats StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.ShedRequests != 2 {
		t.Fatalf("ShedRequests = %d, want 2", stats.ShedRequests)
	}
	if stats.QueueDepth != 1 {
		t.Fatalf("QueueDepth = %d, want 1 (one parked waiter)", stats.QueueDepth)
	}
	if stats.QueueWait != 1 {
		t.Fatalf("QueueWait = %d, want 1", stats.QueueWait)
	}

	close(hold)
	for i := 0; i < 2; i++ {
		r := <-results
		if r.code != http.StatusOK {
			t.Fatalf("admitted request %d: status %d: %s", i, r.code, r.body)
		}
	}
	waitFor(t, "the limiter to drain", func() bool { return s.limiter.InUse() == 0 })
	if n := s.adm.waiting.Load(); n != 0 {
		t.Fatalf("wait pool did not drain: %d", n)
	}
}

// TestQueueWaitDisabled: QueueWait -1 sheds the moment no slot is
// free, with no waiting pool at all.
func TestQueueWaitDisabled(t *testing.T) {
	l := sweep.NewLimiter(1)
	a := newAdmission(l, -1)
	if a.waitCap != 0 {
		t.Fatalf("waitCap = %d, want 0", a.waitCap)
	}
	if err := a.admit(context.Background()); err != nil {
		t.Fatalf("admit with a free slot: %v", err)
	}
	err := a.admit(context.Background())
	se, ok := err.(*statusError)
	if !ok || se.code != http.StatusTooManyRequests {
		t.Fatalf("admit with no free slot: %v, want a 429 statusError", err)
	}
	if se.retryAfter < 1 {
		t.Fatalf("retryAfter = %d, want ≥ 1", se.retryAfter)
	}
	l.Release()
	if got := a.shed.Load(); got != 1 {
		t.Fatalf("shed = %d, want 1", got)
	}
}

// longHaulDSL is one message crossing a cells-long linear array end to
// end: once the pipeline fills, every cycle advances a word on every
// hop, so the run is long in host time (cells × words hop moves) for a
// text of words ops — a run a test can find in flight.
func longHaulDSL(cells, words int) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "topology linear %d\n", cells)
	for c := 1; c <= cells; c++ {
		fmt.Fprintf(&b, "cell C%d\n", c)
	}
	fmt.Fprintf(&b, "message M C1 C%d %d\n", cells, words)
	for _, code := range []struct{ cell, op string }{{"C1", " W(M)"}, {fmt.Sprintf("C%d", cells), " R(M)"}} {
		fmt.Fprintf(&b, "code %s:", code.cell)
		for w := 0; w < words; w++ {
			b.WriteString(code.op)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestRunHoldsOneSlot is the regression test for the shard budget: a
// /v1/run used to take up to workers-1 extra -max-concurrency slots
// without blocking, so one anonymous request with "workers": 4 filled a
// 4-slot daemon and the next client queued or was shed. A run holds
// exactly one slot: with the long run in flight and no wait pool, a
// second request is admitted at once.
func TestRunHoldsOneSlot(t *testing.T) {
	s, ts := newTestServer(t, Options{MaxConcurrency: 4, QueueWait: -1})
	body := mustJSON(t, RunRequest{Program: longHaulDSL(2000, 40000)})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		req, _ := http.NewRequestWithContext(ctx, "POST", ts.URL+"/v1/run", bytes.NewReader(body))
		if resp, err := http.DefaultClient.Do(req); err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	waitFor(t, "the long run to take its slot", func() bool { return s.limiter.InUse() > 0 })
	if n := s.limiter.InUse(); n != 1 {
		t.Fatalf("a run holds %d slots, want 1", n)
	}
	resp, reply := postJSON(t, ts.URL+"/v1/run", RunRequest{Program: relayDSL})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second run beside it: status %d, want 200: %s", resp.StatusCode, reply)
	}
	if s.limiter.InUse() != 1 {
		t.Fatalf("%d slots in use after the second run; the long run must still be in flight for this test to mean anything", s.limiter.InUse())
	}
	if shed := s.adm.shed.Load(); shed != 0 {
		t.Fatalf("%d requests shed", shed)
	}
	// Dropping the client cancels the simulation between cycles.
	cancel()
	<-done
	waitFor(t, "the cancelled run to release its slot", func() bool { return s.limiter.InUse() == 0 })
}

// TestPanicDoesNotLeakLimiterSlot is the regression test for the
// non-deferred Release: a panic inside the simulation (re-raised by
// core.Execute, swallowed by net/http's handler recovery) must not
// leak a -max-concurrency slot. Before the defer-once guard, two
// panics here exhausted MaxConcurrency=2 permanently.
func TestPanicDoesNotLeakLimiterSlot(t *testing.T) {
	testHookAcquired = func() { panic("injected policy bug") }
	t.Cleanup(func() { testHookAcquired = nil })

	s, ts := newTestServer(t, Options{MaxConcurrency: 2, QueueWait: -1})
	ts.Config.ErrorLog = log.New(io.Discard, "", 0) // the injected panics are expected noise

	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/v1/run", "application/json",
			bytes.NewReader(mustJSON(t, RunRequest{Program: relayDSL})))
		// net/http aborts the connection on a handler panic; either a
		// transport error or a closed body is acceptable here.
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}
	if inUse := s.limiter.InUse(); inUse != 0 {
		t.Fatalf("panicking handlers leaked %d limiter slots", inUse)
	}
	var stats StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.InFlightRuns != 0 {
		t.Fatalf("InFlightRuns = %d after panics, want 0", stats.InFlightRuns)
	}
	if n := s.tenants.anon.active.Load(); n != 0 {
		t.Fatalf("panicking handlers left the anonymous tenant %d active runs", n)
	}

	// With the slots intact, a healthy run is admitted immediately even
	// though QueueWait is -1.
	testHookAcquired = nil
	resp, body := postJSON(t, ts.URL+"/v1/run", RunRequest{Program: relayDSL})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run after panics: status %d: %s", resp.StatusCode, body)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// tenantsFixture is a registry with one rate-limited tenant and one
// quota-bounded tenant.
const tenantsFixture = `{
  "tiers": {
    "drip":  {"requestsPerSec": 0.001, "burst": 1},
    "small": {"maxConcurrent": 1, "maxGridPoints": 4, "maxCycles": 100000}
  },
  "tenants": {
    "key-alice": {"name": "alice", "tier": "drip"},
    "key-bob":   {"name": "bob", "tier": "small"}
  }
}`

func parseFixture(t *testing.T) *Tenants {
	t.Helper()
	ts, err := parseTenants([]byte(tenantsFixture))
	if err != nil {
		t.Fatalf("parseTenants: %v", err)
	}
	return ts
}

// writeTenants writes a tenants document to a file under t.TempDir()
// and returns its path, for Options.TenantsFile.
func writeTenants(t *testing.T, doc string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tenants.json")
	if err := os.WriteFile(path, []byte(doc), 0o600); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestTenantAuthAndRateLimit: with a registry configured, compute
// endpoints demand a key, unknown keys are 401, and a tenant over its
// token bucket gets a tenant-scoped 429 with Retry-After.
func TestTenantAuthAndRateLimit(t *testing.T) {
	_, ts := newTestServer(t, Options{TenantsFile: writeTenants(t, tenantsFixture)})

	resp, _ := postJSON(t, ts.URL+"/v1/run", RunRequest{Program: relayDSL})
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("keyless request: status %d, want 401", resp.StatusCode)
	}
	resp, _ = postJSONAuth(t, ts.URL+"/v1/run", "key-unknown", RunRequest{Program: relayDSL})
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("unknown key: status %d, want 401", resp.StatusCode)
	}

	resp, body := postJSONAuth(t, ts.URL+"/v1/run", "key-alice", RunRequest{Program: relayDSL})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("authenticated run: status %d: %s", resp.StatusCode, body)
	}
	// Burst 1 at 0.001 req/s: the bucket is empty for the next ~1000s.
	resp, body = postJSONAuth(t, ts.URL+"/v1/run", "key-alice", RunRequest{Program: relayDSL})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("rate-limited run: status %d, want 429: %s", resp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte("alice")) {
		t.Fatalf("rate-limit error is not tenant-scoped: %s", body)
	}
	if ra, err := strconv.Atoi(resp.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Fatalf("rate limit Retry-After %q, want an integer ≥ 1", resp.Header.Get("Retry-After"))
	}

	// The X-API-Key spelling authenticates too.
	req, _ := http.NewRequest("POST", ts.URL+"/v1/run",
		bytes.NewReader(mustJSON(t, RunRequest{Program: relayDSL})))
	req.Header.Set("X-API-Key", "key-bob")
	xresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	xresp.Body.Close()
	if xresp.StatusCode != http.StatusOK {
		t.Fatalf("X-API-Key run: status %d", xresp.StatusCode)
	}

	var stats StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.Tenants != 2 {
		t.Fatalf("Tenants = %d, want 2", stats.Tenants)
	}
	if stats.AuthFailures != 2 {
		t.Fatalf("AuthFailures = %d, want 2", stats.AuthFailures)
	}
	if stats.TenantRejects != 1 {
		t.Fatalf("TenantRejects = %d, want 1", stats.TenantRejects)
	}
}

// TestTenantQuotas covers the tier's grid, cycle, and concurrency
// bounds end to end for tenant bob (maxConcurrent 1, maxGridPoints 4,
// maxCycles 100000).
func TestTenantQuotas(t *testing.T) {
	s, ts := newTestServer(t, Options{TenantsFile: writeTenants(t, tenantsFixture), MaxConcurrency: 4})

	// Grid over the tier bound: 2 policies × 2 queues × 2 capacities.
	resp, body := postJSONAuth(t, ts.URL+"/v1/sweep", "key-bob", SweepRequest{
		Program:  relayDSL,
		Policies: []string{"fcfs", "compatible"},
		Queues:   []int{1, 2}, Capacities: []int{1, 2}, Lookaheads: []int{0},
	})
	if resp.StatusCode != http.StatusTooManyRequests || !bytes.Contains(body, []byte("bob")) {
		t.Fatalf("oversized grid: status %d body %s, want tenant-scoped 429", resp.StatusCode, body)
	}

	// Cycle budget over the tier bound.
	resp, body = postJSONAuth(t, ts.URL+"/v1/run", "key-bob", RunRequest{Program: relayDSL, MaxCycles: 1 << 30})
	if resp.StatusCode != http.StatusTooManyRequests || !bytes.Contains(body, []byte("bob")) {
		t.Fatalf("oversized cycle budget: status %d body %s, want tenant-scoped 429", resp.StatusCode, body)
	}

	// Concurrency: hold bob's single slot, then a second run is 429.
	hold := make(chan struct{})
	testHookAcquired = func() { <-hold }
	t.Cleanup(func() { testHookAcquired = nil })
	done := make(chan struct{})
	go func() {
		defer close(done)
		req, _ := http.NewRequest("POST", ts.URL+"/v1/run",
			bytes.NewReader(mustJSON(t, RunRequest{Program: relayDSL})))
		req.Header.Set("X-API-Key", "key-bob")
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	waitFor(t, "bob's first run to hold its slot", func() bool { return s.limiter.InUse() == 1 })
	resp, body = postJSONAuth(t, ts.URL+"/v1/run", "key-bob", RunRequest{Program: relayDSL})
	if resp.StatusCode != http.StatusTooManyRequests || !bytes.Contains(body, []byte("concurrency")) {
		t.Fatalf("concurrent run over quota: status %d body %s, want 429", resp.StatusCode, body)
	}
	close(hold)
	<-done

	if rejects := s.tenants.rejects.Load(); rejects != 3 {
		t.Fatalf("TenantRejects = %d, want 3", rejects)
	}
}

// TestTenantCycleClamp: a tier with MaxCycles clamps an unset request
// budget rather than letting "use the default" exceed the tier.
func TestTenantCycleClamp(t *testing.T) {
	reg := parseFixture(t)
	bob := reg.byKey["key-bob"]
	got, err := bob.cycleBudget(0)
	if err != nil || got != 100000 {
		t.Fatalf("cycleBudget(0) = %d, %v; want the tier bound 100000", got, err)
	}
	got, err = bob.cycleBudget(5000)
	if err != nil || got != 5000 {
		t.Fatalf("cycleBudget(5000) = %d, %v; want 5000", got, err)
	}
	if _, err := bob.cycleBudget(100001); err == nil {
		t.Fatal("cycleBudget over the tier bound was allowed")
	}
	anon := anonymous().anon
	if got, err := anon.cycleBudget(0); err != nil || got != 0 {
		t.Fatalf("anonymous cycleBudget(0) = %d, %v; want passthrough", got, err)
	}
}

// TestParseTenantsErrors pins the registry's validation: determinate,
// key-redacting errors.
func TestParseTenantsErrors(t *testing.T) {
	cases := []struct {
		name string
		json string
		want string
	}{
		{"empty", `{}`, "no tenants"},
		{"no name", `{"tenants": {"key-abcdef": {}}}`, "key-" /* redacted */},
		{"unknown tier", `{"tenants": {"k": {"name": "x", "tier": "gold"}}}`, "unknown tier"},
		{"negative limit", `{"tiers": {"t": {"maxCycles": -1}}, "tenants": {"k": {"name": "x", "tier": "t"}}}`, "negative"},
		{"unknown field", `{"tenant": {}}`, "unknown field"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseTenants([]byte(tc.json))
			if err == nil || !bytes.Contains([]byte(err.Error()), []byte(tc.want)) {
				t.Fatalf("parseTenants = %v, want error containing %q", err, tc.want)
			}
		})
	}
	if _, err := parseTenants([]byte(`{"tenants": {"key-abcdef": {"name": ""}}}`)); err == nil ||
		bytes.Contains([]byte(err.Error()), []byte("abcdef")) {
		t.Fatalf("error %v leaks the full API key", err)
	}
}

// TestSweepStreaming is the streaming acceptance test: rows arrive
// incrementally (the first row is readable while a later grid point is
// still held mid-flight), in enumeration order, byte-equivalent to the
// buffered response's outcome list, with a terminal summary row whose
// ID replays the buffered document.
func TestSweepStreaming(t *testing.T) {
	gate := make(chan struct{})
	testHookStreamOutcome = func(i int, o sweep.Outcome) {
		if i == 1 {
			<-gate
		}
	}
	t.Cleanup(func() { testHookStreamOutcome = nil })

	_, ts := newTestServer(t, Options{MaxConcurrency: 2})
	sreq := SweepRequest{
		Program:  relayDSL,
		Policies: []string{"fcfs"},
		Queues:   []int{1, 2, 3}, Capacities: []int{1}, Lookaheads: []int{0},
		Workers: 1, // sequential grid: point 1 cannot start before point 0 is delivered
	}
	resp, err := http.Post(ts.URL+"/v1/sweep?stream=1", "application/json", bytes.NewReader(mustJSON(t, sreq)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type %q, want application/x-ndjson", ct)
	}

	br := bufio.NewReader(resp.Body)
	type lineResult struct {
		line []byte
		err  error
	}
	readLine := func() chan lineResult {
		ch := make(chan lineResult, 1)
		go func() {
			l, e := br.ReadBytes('\n')
			ch <- lineResult{l, e}
		}()
		return ch
	}

	// The first row must arrive while grid point 1 is parked in the
	// hook — i.e. before the grid finishes. A buffered implementation
	// hangs here.
	var first []byte
	select {
	case r := <-readLine():
		if r.err != nil {
			t.Fatalf("first row: %v", r.err)
		}
		first = r.line
	case <-time.After(30 * time.Second):
		t.Fatal("no streamed row arrived before the grid finished")
	}
	var row0 SweepOutcome
	if err := json.Unmarshal(first, &row0); err != nil {
		t.Fatalf("first row is not a SweepOutcome: %v\n%s", err, first)
	}
	if row0.Queues != 1 {
		t.Fatalf("first row is grid point %+v, want the queues=1 point (enumeration order)", row0)
	}
	close(gate)

	var rows [][]byte
	rows = append(rows, bytes.TrimRight(first, "\n"))
	var summaryLine []byte
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			summaryLine = bytes.TrimRight(line, "\n")
			rows = append(rows, summaryLine)
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("reading stream: %v", err)
		}
	}
	rows = rows[:len(rows)-1] // the last line is the summary, not an outcome row
	if len(rows) != 3 {
		t.Fatalf("streamed %d outcome rows, want 3", len(rows))
	}
	var sum SweepStreamSummary
	if err := json.Unmarshal(summaryLine, &sum); err != nil {
		t.Fatalf("summary row: %v\n%s", err, summaryLine)
	}
	if !sum.Done || sum.Rows != 3 || sum.ID == "" || sum.Table == "" {
		t.Fatalf("summary row incomplete: %+v", sum)
	}

	// The retained document replays the sweep in buffered form, and its
	// outcome list is byte-equivalent to the concatenated rows.
	var doc bytes.Buffer
	dresp, err := http.Get(ts.URL + "/v1/results/" + sum.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer dresp.Body.Close()
	doc.ReadFrom(dresp.Body)
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("results replay status %d", dresp.StatusCode)
	}
	var raw struct {
		Outcomes []json.RawMessage `json:"outcomes"`
	}
	if err := json.Unmarshal(doc.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	if len(raw.Outcomes) != len(rows) {
		t.Fatalf("buffered document has %d outcomes, streamed %d rows", len(raw.Outcomes), len(rows))
	}
	for i := range rows {
		if !bytes.Equal(rows[i], []byte(raw.Outcomes[i])) {
			t.Fatalf("row %d diverges from the buffered outcome:\n%s\nvs\n%s", i, rows[i], raw.Outcomes[i])
		}
	}

	// A second, buffered sweep of the same request is served from the
	// scenario cache.
	bresp, bbody := postJSON(t, ts.URL+"/v1/sweep", sreq)
	if bresp.StatusCode != http.StatusOK {
		t.Fatalf("buffered repeat: status %d: %s", bresp.StatusCode, bbody)
	}
	var sr SweepResponse
	if err := json.Unmarshal(bbody, &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.Cached {
		t.Fatal("repeated sweep did not hit the scenario cache")
	}
	if sr.Scenario != sum.Scenario {
		t.Fatal("streamed and buffered scenario hashes differ")
	}
}

// TestSweepStreamClientGoneReleasesEverything: a client that
// disappears mid-stream must unwind the engine — no limiter slots
// held, no workers parked on the dead consumer.
func TestSweepStreamClientGoneReleasesEverything(t *testing.T) {
	gate := make(chan struct{})
	var once sync.Once
	reached := make(chan struct{})
	testHookStreamOutcome = func(i int, o sweep.Outcome) {
		if i == 1 {
			once.Do(func() { close(reached) })
			<-gate
		}
	}
	t.Cleanup(func() { testHookStreamOutcome = nil })

	s, ts := newTestServer(t, Options{MaxConcurrency: 2})
	sreq := SweepRequest{
		Program:  relayDSL,
		Policies: []string{"fcfs"},
		Queues:   []int{1, 2, 3, 4}, Capacities: []int{1}, Lookaheads: []int{0},
		Workers: 1,
	}
	resp, err := http.Post(ts.URL+"/v1/sweep?stream=1", "application/json", bytes.NewReader(mustJSON(t, sreq)))
	if err != nil {
		t.Fatal(err)
	}
	<-reached
	resp.Body.Close() // the client vanishes mid-grid
	close(gate)

	waitFor(t, "the limiter to drain after client disconnect", func() bool {
		return s.limiter.InUse() == 0
	})
	waitFor(t, "the sweep to return the anonymous tenant's slot", func() bool {
		return s.tenants.anon.active.Load() == 0
	})

	// The daemon still serves: a fresh buffered sweep completes.
	r2, body := postJSON(t, ts.URL+"/v1/sweep", SweepRequest{Program: relayDSL, Policies: []string{"fcfs"}, Queues: []int{1}, Capacities: []int{1}, Lookaheads: []int{0}})
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("sweep after disconnect: status %d: %s", r2.StatusCode, body)
	}
}

// TestSweepRequestValidation: the sweep endpoint refuses a negative
// worker count, bad stream values and bad axes before any work or
// response bytes are committed.
func TestSweepRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	cases := []struct {
		name string
		path string
		req  SweepRequest
	}{
		{"negative workers", "/v1/sweep", SweepRequest{Program: relayDSL, Workers: -1}},
		{"bad stream value", "/v1/sweep?stream=yes", SweepRequest{Program: relayDSL}},
		{"negative queue axis", "/v1/sweep", SweepRequest{Program: relayDSL, Queues: []int{-1}}},
		{"zero capacity axis", "/v1/sweep", SweepRequest{Program: relayDSL, Capacities: []int{0}}},
		// A negative bound used to pass through to every grid point —
		// each one an "error" row inside a 200, committed before the
		// first row when streamed.
		{"negative maxCycles", "/v1/sweep", SweepRequest{Program: relayDSL, MaxCycles: -5}},
		{"negative maxCycles streamed", "/v1/sweep?stream=1", SweepRequest{Program: relayDSL, MaxCycles: -5}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+tc.path, tc.req)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
			}
		})
	}
}

// TestTenantsFileFailsClosed: a tenants file that does not load must
// not leave the daemon serving anonymously. New refuses every compute
// request with a 500 naming the error, the read endpoints stay open,
// and ListenAndServe returns the error before it listens.
func TestTenantsFileFailsClosed(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.json")
	_, ts := newTestServer(t, Options{TenantsFile: missing})
	for _, route := range []string{"/v1/analyze", "/v1/run", "/v1/sweep"} {
		resp, body := postJSON(t, ts.URL+route, RunRequest{Program: relayDSL})
		if resp.StatusCode != http.StatusInternalServerError || !bytes.Contains(body, []byte("missing.json")) {
			t.Errorf("%s with an unloadable tenants file: %d %s, want 500 naming the file", route, resp.StatusCode, body)
		}
	}
	if resp, err := http.Get(ts.URL + "/v1/stats"); err != nil || resp.StatusCode != http.StatusOK {
		t.Errorf("/v1/stats: %v %v, want 200", resp, err)
	} else {
		resp.Body.Close()
	}
	// Cancelled up front, so a regression that listens returns nil
	// instead of serving until the test times out.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := ListenAndServe(ctx, Options{Addr: "127.0.0.1:0", TenantsFile: missing})
	if err == nil || !strings.Contains(err.Error(), "missing.json") {
		t.Fatalf("ListenAndServe = %v, want the tenants load error", err)
	}
}
