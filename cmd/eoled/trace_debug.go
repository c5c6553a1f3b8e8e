package main

import (
	"errors"
	"fmt"
	"net/http"

	"eole/internal/obs"
)

// The /v1/debug/traces endpoints serve the tracer's ring of assembled
// traces: a summary listing, and per-trace detail as JSON (`eolectl
// trace` renders it as a span tree). They live under /v1/debug because
// the ring is bounded diagnostic state, not part of the simulation
// API's compatibility surface.

// debugTracesResponse is the GET /v1/debug/traces listing.
type debugTracesResponse struct {
	Enabled bool               `json:"enabled"`
	Traces  []obs.TraceSummary `json:"traces"`
}

func (s *server) handleDebugTraces(w http.ResponseWriter, _ *http.Request) {
	sums := s.opts.tracer.Summaries()
	if sums == nil {
		sums = []obs.TraceSummary{}
	}
	writeJSON(w, http.StatusOK, debugTracesResponse{
		Enabled: s.opts.tracer != nil,
		Traces:  sums,
	})
}

// handleDebugTrace serves one assembled trace. The {id} path element is
// resolved first as a trace ID, then as a request ID (the value clients
// already hold from X-Eole-Request-Id), so either header on a past
// response addresses its trace.
func (s *server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	t := s.opts.tracer
	if t == nil {
		writeError(w, http.StatusNotFound,
			errors.New("tracing disabled: restart eoled with -trace-ring > 0"))
		return
	}
	id := r.PathValue("id")
	tr, ok := t.Trace(id)
	if !ok {
		tr, ok = t.TraceByRequestID(id)
	}
	if !ok {
		writeError(w, http.StatusNotFound,
			fmt.Errorf("no retained trace with trace or request ID %q", id))
		return
	}
	writeJSON(w, http.StatusOK, tr)
}
