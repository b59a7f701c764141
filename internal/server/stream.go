package server

// Streaming sweep results: POST /v1/sweep?stream=1 writes one NDJSON
// outcome row per grid point as it completes, then a terminal summary
// row, instead of buffering the whole report. Rows are emitted in
// enumeration order — exactly the order the buffered response's
// outcome list carries — by holding out-of-order completions in a
// small reorder buffer until their index is next. Each row is the
// json.Marshal bytes of the same SweepOutcome the buffered path
// emits, plus the NDJSON newline, so the concatenated rows are
// byte-equivalent to the buffered outcome list.

import (
	"encoding/json"
	"fmt"
	"net/http"

	"systolic/internal/sweep"
)

// testHookStreamOutcome, when non-nil, observes every completed grid
// point on the streaming path before it is handed to the writer.
// Tests use it to hold the grid mid-flight and assert rows reach the
// client before the sweep finishes.
var testHookStreamOutcome func(index int, o sweep.Outcome)

// streamParam interprets the ?stream= query parameter.
func streamParam(r *http.Request) (bool, error) {
	switch v := r.URL.Query().Get("stream"); v {
	case "", "0", "false":
		return false, nil
	case "1", "true":
		return true, nil
	default:
		return false, badRequest(fmt.Errorf("bad stream parameter %q (want 1 or true)", v))
	}
}

// streamRow pairs a grid point's enumeration index with its outcome.
type streamRow struct {
	i int
	o sweep.Outcome
}

// streamSweep runs a prepared sweep with a streaming response. The
// engine runs in its own goroutine, handing completed grid points
// over a channel via Options.OnOutcome (after the limiter slot of the
// execution behind them is released, so a slow client never pins the
// simulation budget); this goroutine reorders them by index and writes
// NDJSON.
// The buffered-form response document is still retained under the
// result ID, so GET /v1/results/{id} replays the sweep as if it had
// not been streamed.
func (s *Server) streamSweep(w http.ResponseWriter, r *http.Request, job *sweepJob) {
	ctx := r.Context()
	rows := make(chan streamRow)
	done := make(chan struct{})
	var rep *sweep.Report
	var runErr error
	job.opts.OnOutcome = func(i int, o sweep.Outcome) {
		if h := testHookStreamOutcome; h != nil {
			h(i, o)
		}
		select {
		case rows <- streamRow{i, o}:
		case <-ctx.Done():
			// Client gone; drop the row so the engine's workers are
			// never stuck on a dead consumer while Run unwinds.
		}
	}
	go func() {
		defer close(done)
		defer close(rows)
		rep, runErr = sweep.Run(ctx, job.cases, job.axes, job.opts)
	}()

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	pending := make(map[int]sweep.Outcome)
	next := 0
	for {
		var row streamRow
		var ok bool
		select {
		case <-ctx.Done():
			<-done
			return
		case row, ok = <-rows:
		}
		if !ok {
			break
		}
		pending[row.i] = row.o
		for {
			o, ready := pending[next]
			if !ready {
				break
			}
			delete(pending, next)
			next++
			if err := enc.Encode(wireOutcome(o)); err != nil {
				s.logf("sweep stream: encode row: %v", err)
				<-done
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
	}
	<-done

	if runErr != nil {
		// Headers are committed; the best we can do is a terminal
		// error row and a log line.
		s.logf("sweep stream: %v", runErr)
		if err := enc.Encode(ErrorResponse{Error: runErr.Error()}); err != nil {
			s.logf("sweep stream: encode error row: %v", err)
		}
		return
	}
	resp := s.sweepDocument(job, rep)
	body, err := json.Marshal(resp)
	if err != nil {
		s.logf("sweep stream: marshal result document: %v", err)
		return
	}
	s.results.save(resp.ID, append(body, '\n'))
	sum := SweepStreamSummary{
		ID:       resp.ID,
		Done:     true,
		Rows:     len(resp.Outcomes),
		Scenario: resp.Scenario,
		Cached:   resp.Cached,
		Table:    resp.Table,
	}
	if err := enc.Encode(sum); err != nil {
		s.logf("sweep stream: encode summary: %v", err)
		return
	}
	if flusher != nil {
		flusher.Flush()
	}
}
