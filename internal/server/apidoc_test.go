package server

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// readAPIDoc loads docs/API.md, the wire-format contract this test
// enforces.
func readAPIDoc(t *testing.T) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "docs", "API.md"))
	if err != nil {
		t.Fatalf("docs/API.md must exist: %v", err)
	}
	return string(b)
}

// TestAPIDocCoversEveryRoute fails when a route is registered on the
// service but absent from docs/API.md — endpoints cannot ship
// undocumented.
func TestAPIDocCoversEveryRoute(t *testing.T) {
	doc := readAPIDoc(t)
	for _, route := range Routes() {
		// The doc writes routes as headings like "### POST /v1/run".
		if !strings.Contains(doc, route) {
			t.Errorf("docs/API.md does not document route %q", route)
		}
	}
	if !strings.Contains(doc, "/debug/vars") {
		t.Error("docs/API.md does not mention the expvar endpoint")
	}
}

// TestAPIDocCoversPublicSurface pins the Go-surface section: the
// entry points the reference promises to cover must be named.
func TestAPIDocCoversPublicSurface(t *testing.T) {
	doc := readAPIDoc(t)
	for _, sym := range []string{
		"Analyze", "Precompile", "Execute", "Sweep",
		"GenerateProgram", "DiffCheck", "Serve",
		"ParseDSL", "FormatDSL", "ParsePolicyName",
		"NewServeHandler", "ServeRoutes",
	} {
		if !strings.Contains(doc, sym) {
			t.Errorf("docs/API.md does not document %s", sym)
		}
	}
}

// docJSONBlocks extracts fenced blocks whose info string is
// "json <tag>", keyed by tag.
func docJSONBlocks(t *testing.T, doc string) map[string][]string {
	t.Helper()
	out := make(map[string][]string)
	lines := strings.Split(doc, "\n")
	for i := 0; i < len(lines); i++ {
		head := strings.TrimSpace(lines[i])
		if !strings.HasPrefix(head, "```json ") {
			continue
		}
		tag := strings.TrimSpace(strings.TrimPrefix(head, "```json "))
		var body []string
		for i++; i < len(lines); i++ {
			if strings.TrimSpace(lines[i]) == "```" {
				break
			}
			body = append(body, lines[i])
		}
		if i == len(lines) {
			t.Fatalf("unterminated json fence %q", tag)
		}
		out[tag] = append(out[tag], strings.Join(body, "\n"))
	}
	return out
}

// blockedLine is one deadlock report line as machine.DescribeBlocked
// writes it: a cell, its stuck op on message M, and one of the four
// stall causes in machine.CellBlock.Reason's words, naming M again.
var blockedLine = regexp.MustCompile(`^\S+ stuck at [RW]\((\S+)\): (?:` +
	`no queue bound for (\S+) on its first link|` +
	`queue for (\S+) is full \(capacity \d+\) and the downstream never drains|` +
	`no queue bound for (\S+) on its last link|` +
	`no word of (\S+) has arrived)$`)

// isBlockedLine reports whether line has blockedLine's form and its
// cause names the message of its op.
func isBlockedLine(line string) bool {
	m := blockedLine.FindStringSubmatch(line)
	return m != nil && m[1] == m[2]+m[3]+m[4]+m[5]
}

// TestAPIDocExamplesMatchWireTypes decodes every documented JSON
// example into the service's actual request/response structs with
// unknown fields disallowed, so a renamed or removed field breaks
// this test until the doc is updated. Every documented deadlock line
// must have the form the engines write (isBlockedLine).
func TestAPIDocExamplesMatchWireTypes(t *testing.T) {
	doc := readAPIDoc(t)
	blocks := docJSONBlocks(t, doc)

	targets := map[string]func() any{
		"v1/analyze-request":       func() any { return new(AnalyzeRequest) },
		"v1/analyze-response":      func() any { return new(AnalyzeResponse) },
		"v1/run-request":           func() any { return new(RunRequest) },
		"v1/run-response":          func() any { return new(RunResponse) },
		"v1/run-deadlock-response": func() any { return new(RunResponse) },
		"v1/sweep-request":         func() any { return new(SweepRequest) },
		"v1/sweep-response":        func() any { return new(SweepResponse) },
		"v1/sweep-stream-row":      func() any { return new(SweepOutcome) },
		"v1/sweep-outcome":         func() any { return new(SweepOutcome) },
		"v1/sweep-stream-summary":  func() any { return new(SweepStreamSummary) },
		"v1/stats-response":        func() any { return new(StatsResponse) },
		"v1/tenants-file":          func() any { return new(tenantsFile) },
		"v1/error":                 func() any { return new(ErrorResponse) },
	}
	for tag, mk := range targets {
		bodies, ok := blocks[tag]
		if !ok {
			t.Errorf("docs/API.md has no ```json %s example", tag)
			continue
		}
		for _, body := range bodies {
			dec := json.NewDecoder(strings.NewReader(body))
			dec.DisallowUnknownFields()
			v := mk()
			if err := dec.Decode(v); err != nil {
				t.Errorf("example %q does not match the wire type: %v\n%s", tag, err, body)
			}
			if r, ok := v.(*RunResponse); ok {
				for _, line := range r.Blocked {
					if !isBlockedLine(line) {
						t.Errorf("example %q: blocked line %q is not \"<cell> stuck at <op>: <cause>\" with one of the four causes", tag, line)
					}
				}
			}
		}
	}
	for tag := range blocks {
		if _, known := targets[tag]; !known {
			t.Errorf("docs/API.md example tag %q has no conformance mapping; add it to this test", tag)
		}
	}
}

// TestAPIDocTenantsExampleLoads feeds the documented tenants-file
// example through the real loader: a copy-pasted quickstart config
// must not be rejected.
func TestAPIDocTenantsExampleLoads(t *testing.T) {
	doc := readAPIDoc(t)
	blocks := docJSONBlocks(t, doc)
	bodies := blocks["v1/tenants-file"]
	if len(bodies) == 0 {
		t.Fatal("docs/API.md has no ```json v1/tenants-file example")
	}
	for _, body := range bodies {
		tn, err := parseTenants([]byte(body))
		if err != nil {
			t.Errorf("documented tenants file rejected by parseTenants: %v\n%s", err, body)
			continue
		}
		if len(tn.byKey) == 0 {
			t.Error("documented tenants file defines no tenants")
		}
	}
}

// TestAPIDocRequestExamplesAreServable goes one step further than
// shape checking: the documented request programs must actually be
// accepted by a live handler.
func TestAPIDocRequestExamplesAreServable(t *testing.T) {
	doc := readAPIDoc(t)
	blocks := docJSONBlocks(t, doc)
	_, ts := newTestServer(t, Options{})
	for tag, path := range map[string]string{
		"v1/analyze-request": "/v1/analyze",
		"v1/run-request":     "/v1/run",
		"v1/sweep-request":   "/v1/sweep",
	} {
		for _, body := range blocks[tag] {
			resp, out := postRaw(t, ts.URL+path, body)
			if resp.StatusCode != 200 {
				t.Errorf("documented %s example rejected by the server (%d): %s", tag, resp.StatusCode, out)
			}
		}
	}
}
