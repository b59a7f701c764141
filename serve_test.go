package systolic_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"systolic"
)

// TestNewServeHandlerHonoursTenantsFile: an embedder that names a
// tenants file gets the tenant gate, not an anonymous daemon — a
// keyless /v1/run is refused and a keyed one runs.
func TestNewServeHandlerHonoursTenantsFile(t *testing.T) {
	tenants := filepath.Join(t.TempDir(), "tenants.json")
	if err := os.WriteFile(tenants, []byte(`{"tenants": {"key-embed": {"name": "embedder"}}}`), 0o600); err != nil {
		t.Fatal(err)
	}
	src, err := os.ReadFile("examples/dsl/fig6.sys")
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string]string{"program": string(src)})
	if err != nil {
		t.Fatal(err)
	}
	h := systolic.NewServeHandler(systolic.ServeOptions{TenantsFile: tenants})
	for _, tc := range []struct {
		key  string
		want int
	}{{"", http.StatusUnauthorized}, {"key-embed", http.StatusOK}} {
		req := httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body))
		if tc.key != "" {
			req.Header.Set("X-API-Key", tc.key)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != tc.want {
			t.Errorf("key %q: /v1/run answered %d %s, want %d", tc.key, rec.Code, rec.Body, tc.want)
		}
	}
}
