package server

// Wire transcripts: one fixed request sequence, its statuses and reply
// bytes, compared with files under testdata/. The files were written by
// an earlier build, so a refactor of the serving layer must keep every
// reply byte-identical to what that build answered, not merely
// consistent within one build. Regenerate them only for a deliberate
// change to the wire, and say so where the change is recorded.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"testing"
)

// wireTenants has a tenant with no tier and one under a cycle-capped
// tier whose other limits the transcript stays within.
const wireTenants = `{
  "tiers": {"capped": {"maxCycles": 5, "maxConcurrent": 1, "maxGridPoints": 8}},
  "tenants": {
    "key-zero":   {"name": "zero"},
    "key-capped": {"name": "capped", "tier": "capped"}
  }
}`

// wireTranscript drives a server through analyze, a run posted three
// times (compile, alias hit, reply hit), a run over the capped tier's
// cycle bound, a buffered sweep, the same sweep streamed, two result
// replays and the stats, and returns each exchange's status,
// content type and body.
func wireTranscript(t *testing.T, opts Options, key string) []byte {
	t.Helper()
	opts.MaxConcurrency = 2
	_, ts := newTestServer(t, opts)
	var out bytes.Buffer
	exchange := func(method, path string, body any) []byte {
		t.Helper()
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(mustJSON(t, body))
		}
		req, err := http.NewRequest(method, ts.URL+path, rd)
		if err != nil {
			t.Fatal(err)
		}
		if key != "" {
			req.Header.Set("X-API-Key", key)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		defer resp.Body.Close()
		got, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		fmt.Fprintf(&out, "### %s %s\n%d %s\n%s", method, path, resp.StatusCode, resp.Header.Get("Content-Type"), got)
		return got
	}
	idOf := func(doc []byte) string {
		var v struct{ ID string }
		if err := json.Unmarshal(doc, &v); err != nil || v.ID == "" {
			t.Fatalf("no id in %s", doc)
		}
		return v.ID
	}

	exchange("POST", "/v1/analyze", AnalyzeRequest{Program: relayDSL})
	var lastRun []byte
	for i := 0; i < 3; i++ {
		lastRun = exchange("POST", "/v1/run", RunRequest{Program: fig7DSL, Queues: 1})
	}
	exchange("POST", "/v1/run", RunRequest{Program: relayDSL, MaxCycles: 1 << 20})
	sweepReq := SweepRequest{
		Program:  relayDSL,
		Policies: []string{"fcfs", "compatible"},
		Queues:   []int{1, 2}, Capacities: []int{1}, Lookaheads: []int{0},
	}
	exchange("POST", "/v1/sweep", sweepReq)
	streamed := exchange("POST", "/v1/sweep?stream=1", sweepReq)
	exchange("GET", "/v1/results/"+idOf(lastRun), nil)
	lines := bytes.Split(bytes.TrimSpace(streamed), []byte("\n"))
	exchange("GET", "/v1/results/"+idOf(lines[len(lines)-1]), nil)
	exchange("GET", "/v1/stats", nil)
	return out.Bytes()
}

// TestWireTranscriptGolden holds three servers' replies to the golden
// transcripts: an anonymous one, and one with a tenants file asked as a
// tenant with no tier and as one under a cycle-capped tier.
func TestWireTranscriptGolden(t *testing.T) {
	tenants := writeTenants(t, wireTenants)
	for _, tc := range []struct {
		golden string
		opts   Options
		key    string
	}{
		{"testdata/wire-anonymous.golden", Options{}, ""},
		{"testdata/wire-zero-tier.golden", Options{TenantsFile: tenants}, "key-zero"},
		{"testdata/wire-capped-tier.golden", Options{TenantsFile: tenants}, "key-capped"},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(tc.golden)
			if err != nil {
				t.Fatal(err)
			}
			if got := wireTranscript(t, tc.opts, tc.key); !bytes.Equal(got, want) {
				t.Fatalf("transcript differs from %s:\n%s", tc.golden, got)
			}
		})
	}
}
