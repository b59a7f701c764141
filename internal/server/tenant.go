package server

// Per-tenant API keys and quotas. Every compute request is made by a
// tenant. With no tenants file (the default) the registry holds one
// anonymous tenant on the zero TierPolicy, which limits nothing. With a
// file, a single middleware (Server.gate) authenticates each compute
// request by API key and applies the tenant's requests/sec token
// bucket. Either way the gate hands the handler its tenant, and
// tenant.claim enforces the tier's cycle, grid-size and concurrency
// budgets for runs and sweeps.
//
// The registry is loaded from a small JSON file (-tenants <file>):
//
//	{
//	  "tiers":   {"free": {"maxConcurrent": 1, "maxGridPoints": 64,
//	                       "maxCycles": 100000, "requestsPerSec": 5, "burst": 10}},
//	  "tenants": {"k-abc123": {"name": "alice", "tier": "free"}}
//	}
//
// A tier value of 0 means unlimited for that dimension; a tenant with
// no tier gets the zero TierPolicy, i.e. authenticated but unlimited.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// TierPolicy is one quota tier. Every field's zero value means
// "unlimited" so a partial tier only constrains what it names.
type TierPolicy struct {
	// MaxConcurrent bounds a tenant's simultaneous runs/sweeps.
	MaxConcurrent int `json:"maxConcurrent,omitempty"`
	// MaxGridPoints bounds the size of one sweep request's grid,
	// after default-axis resolution.
	MaxGridPoints int `json:"maxGridPoints,omitempty"`
	// MaxCycles bounds the per-run cycle budget; requests above it are
	// refused and requests that leave it unset are clamped to it.
	MaxCycles int `json:"maxCycles,omitempty"`
	// RequestsPerSec is a token-bucket rate on compute requests;
	// Burst is its bucket depth (minimum 1).
	RequestsPerSec float64 `json:"requestsPerSec,omitempty"`
	Burst          int     `json:"burst,omitempty"`
}

// Tenants is the API-key registry. Build one with anonymous,
// parseTenants or loadTenants; it is immutable after construction and
// safe for concurrent use (each tenant's mutable state is internally
// locked).
type Tenants struct {
	byKey map[string]*tenant
	// anon is the tenant of every request to a registry without keys.
	anon *tenant

	rejects      atomic.Int64 // quota/rate refusals across all tenants
	authFailures atomic.Int64 // missing or unknown API keys
}

// tenant is one principal, an API key's or the anonymous caller, and
// its live quota state.
type tenant struct {
	name string
	tier TierPolicy
	reg  *Tenants

	active atomic.Int64 // concurrent runs in flight

	mu     sync.Mutex // guards the token bucket
	tokens float64
	last   time.Time
}

// tenantsFile is the on-disk shape.
type tenantsFile struct {
	Tiers   map[string]TierPolicy  `json:"tiers"`
	Tenants map[string]tenantEntry `json:"tenants"`
}

type tenantEntry struct {
	Name string `json:"name"`
	Tier string `json:"tier,omitempty"`
}

// anonymous is the registry of a server without a tenants file: no
// keys, and one tenant on the zero tier.
func anonymous() *Tenants {
	ts := &Tenants{}
	ts.anon = &tenant{name: "anonymous", reg: ts}
	return ts
}

// parseTenants builds a registry from the JSON tenants-file format
// above. Validation walks keys in sorted order so the first error
// reported is deterministic.
func parseTenants(data []byte) (*Tenants, error) {
	var f tenantsFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return nil, fmt.Errorf("tenants: %w", err)
	}
	if len(f.Tenants) == 0 {
		return nil, errors.New("tenants: no tenants defined")
	}
	tierNames := make([]string, 0, len(f.Tiers))
	for name := range f.Tiers {
		tierNames = append(tierNames, name)
	}
	sort.Strings(tierNames)
	for _, name := range tierNames {
		p := f.Tiers[name]
		if p.MaxConcurrent < 0 || p.MaxGridPoints < 0 || p.MaxCycles < 0 || p.RequestsPerSec < 0 || p.Burst < 0 {
			return nil, fmt.Errorf("tenants: tier %q has a negative limit", name)
		}
	}
	keys := make([]string, 0, len(f.Tenants))
	for k := range f.Tenants {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ts := &Tenants{byKey: make(map[string]*tenant, len(f.Tenants))}
	now := time.Now()
	for _, key := range keys {
		e := f.Tenants[key]
		if key == "" {
			return nil, errors.New("tenants: empty API key")
		}
		if e.Name == "" {
			return nil, fmt.Errorf("tenants: key %s has no name", redactKey(key))
		}
		tier := TierPolicy{}
		if e.Tier != "" {
			p, ok := f.Tiers[e.Tier]
			if !ok {
				return nil, fmt.Errorf("tenants: %q references unknown tier %q", e.Name, e.Tier)
			}
			tier = p
		}
		burst := float64(tier.Burst)
		if burst < 1 {
			burst = 1
		}
		ts.byKey[key] = &tenant{name: e.Name, tier: tier, reg: ts, tokens: burst, last: now}
	}
	return ts, nil
}

// loadTenants reads and parses a tenants file.
func loadTenants(path string) (*Tenants, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("tenants: %w", err)
	}
	ts, err := parseTenants(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return ts, nil
}

// redactKey shows enough of an API key to identify it in an error
// without reproducing the credential.
func redactKey(k string) string {
	if len(k) <= 4 {
		return k
	}
	return k[:4] + "…"
}

// authenticate resolves a request's API key — "Authorization: Bearer
// <key>" or "X-API-Key: <key>" — to its tenant, counting failures. A
// registry without keys answers with its anonymous tenant.
func (ts *Tenants) authenticate(r *http.Request) (*tenant, error) {
	if len(ts.byKey) == 0 {
		return ts.anon, nil
	}
	key := r.Header.Get("X-API-Key")
	if key == "" {
		if auth := r.Header.Get("Authorization"); strings.HasPrefix(auth, "Bearer ") {
			key = strings.TrimPrefix(auth, "Bearer ")
		}
	}
	if key == "" {
		ts.authFailures.Add(1)
		return nil, &statusError{code: http.StatusUnauthorized, err: errors.New("missing API key (Authorization: Bearer <key> or X-API-Key)")}
	}
	t, ok := ts.byKey[key]
	if !ok {
		ts.authFailures.Add(1)
		return nil, &statusError{code: http.StatusUnauthorized, err: errors.New("unknown API key")}
	}
	return t, nil
}

// gate wraps a compute handler with tenant authentication and rate
// limiting and hands it the request's tenant. With a tenants file that
// failed to load it refuses every request with a 500.
func (s *Server) gate(h func(http.ResponseWriter, *http.Request, *tenant)) http.HandlerFunc {
	if s.tenantsErr != nil {
		err := &statusError{code: http.StatusInternalServerError, err: s.tenantsErr}
		return func(w http.ResponseWriter, _ *http.Request) { s.writeError(w, err) }
	}
	return func(w http.ResponseWriter, r *http.Request) {
		t, err := s.tenants.authenticate(r)
		if err != nil {
			s.writeError(w, err)
			return
		}
		if err := t.allowRequest(time.Now()); err != nil {
			s.writeError(w, err)
			return
		}
		h(w, r, t)
	}
}

// allowRequest spends one token from the tenant's rate bucket,
// refilling by elapsed time, and refuses with a tenant-scoped 429 —
// Retry-After sized to the token deficit — when the bucket is empty.
func (t *tenant) allowRequest(now time.Time) error {
	if t.tier.RequestsPerSec <= 0 {
		return nil
	}
	t.mu.Lock()
	burst := float64(t.tier.Burst)
	if burst < 1 {
		burst = 1
	}
	t.tokens += now.Sub(t.last).Seconds() * t.tier.RequestsPerSec
	t.last = now
	if t.tokens > burst {
		t.tokens = burst
	}
	if t.tokens < 1 {
		deficit := (1 - t.tokens) / t.tier.RequestsPerSec
		t.mu.Unlock()
		t.reg.rejects.Add(1)
		retry := int(math.Ceil(deficit))
		if retry < 1 {
			retry = 1
		}
		return &statusError{
			code:       http.StatusTooManyRequests,
			retryAfter: retry,
			err:        fmt.Errorf("tenant %q over its rate limit (%g requests/s)", t.name, t.tier.RequestsPerSec),
		}
	}
	t.tokens--
	t.mu.Unlock()
	return nil
}

// claim applies the tier to one run or sweep before any work: the
// cycle budget, the grid bound (points is 0 for a run), then one of the
// tenant's concurrent-run slots, which endRun returns. It returns the
// cycle budget to run under.
func (t *tenant) claim(requested, points int) (int, error) {
	maxCycles, err := t.cycleBudget(requested)
	if err != nil {
		return 0, err
	}
	if t.tier.MaxGridPoints > 0 && points > t.tier.MaxGridPoints {
		t.reg.rejects.Add(1)
		return 0, &statusError{
			code: http.StatusTooManyRequests,
			err:  fmt.Errorf("tenant %q sweep grid of %d points exceeds its tier's %d", t.name, points, t.tier.MaxGridPoints),
		}
	}
	if n := t.active.Add(1); t.tier.MaxConcurrent > 0 && n > int64(t.tier.MaxConcurrent) {
		t.active.Add(-1)
		t.reg.rejects.Add(1)
		return 0, &statusError{
			code:       http.StatusTooManyRequests,
			retryAfter: 1,
			err:        fmt.Errorf("tenant %q at its concurrency limit (%d concurrent runs)", t.name, t.tier.MaxConcurrent),
		}
	}
	return maxCycles, nil
}

func (t *tenant) endRun() { t.active.Add(-1) }

// cycleBudget applies the tier's per-run cycle bound: explicit
// requests above it are refused, an unset request (0) is clamped to
// the bound so "use the default" can never exceed the tier.
func (t *tenant) cycleBudget(requested int) (int, error) {
	bound := t.tier.MaxCycles
	if bound == 0 {
		return requested, nil
	}
	if requested > bound {
		t.reg.rejects.Add(1)
		return 0, &statusError{
			code: http.StatusTooManyRequests,
			err:  fmt.Errorf("tenant %q cycle budget %d exceeds its tier's %d", t.name, requested, bound),
		}
	}
	if requested == 0 {
		return bound, nil
	}
	return requested, nil
}
