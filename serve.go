package systolic

import (
	"context"
	"net/http"

	"systolic/internal/server"
)

// Simulation-as-a-service (see internal/server): a long-running
// HTTP/JSON daemon over the Analyze/Execute/Sweep pipeline with a
// content-addressed compiled-machine cache — repeated scenarios skip
// parsing, analysis, and compilation and go straight to a pooled
// machine run.
type (
	// ServeOptions configures the daemon: listen address, cache bound,
	// concurrency budget, tenants file.
	ServeOptions = server.Options
	// ServeStats is the counter snapshot exposed by GET /v1/stats.
	ServeStats = server.StatsResponse
)

// Serve runs the simulation service on opts.Addr until ctx is
// cancelled, then shuts down gracefully. The sysdl serve verb is a
// thin wrapper around this.
func Serve(ctx context.Context, opts ServeOptions) error {
	return server.ListenAndServe(ctx, opts)
}

// NewServeHandler returns the service's HTTP handler without binding
// a listener, for callers embedding the service in their own server
// (custom TLS, middleware, muxes).
func NewServeHandler(opts ServeOptions) http.Handler {
	return server.New(opts).Handler()
}

// ServeRoutes lists the service's route patterns.
func ServeRoutes() []string { return server.Routes() }
