package main

import (
	"encoding/json"
	"encoding/xml"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"eole/internal/jobs"
	"eole/internal/obs"
	"eole/internal/simsvc"
)

// newTracedHandler builds a fully traced stack — service, job registry
// and HTTP layer all sharing one tracer — as -trace-ring would wire in
// production.
func newTracedHandler(t *testing.T) (http.Handler, *obs.Tracer) {
	t.Helper()
	// Every status poll of a test adds a trace to the ring; it must be
	// deep enough that polling a slow job (-race) does not evict the
	// job's own trace mid-run.
	tracer := obs.NewTracer("eoled@test", 4096)
	svc, err := simsvc.New(simsvc.Options{Parallelism: 2, Tracer: tracer})
	if err != nil {
		t.Fatal(err)
	}
	registry := jobs.New(svc, jobs.Options{Tracer: tracer})
	t.Cleanup(func() {
		registry.Close()
		svc.Close()
	})
	h := newServer(svc, serverOptions{
		defaultWarmup:  2_000,
		defaultMeasure: 5_000,
		maxUops:        1_000_000,
		jobs:           registry,
		tracer:         tracer,
	})
	return h, tracer
}

// spanNames collects the set of span names in a trace.
func spanNames(tr obs.Trace) map[string]bool {
	names := make(map[string]bool, len(tr.Spans))
	for _, sp := range tr.Spans {
		names[sp.Name] = true
	}
	return names
}

// TestDebugTracesEndToEnd: one simulate request must yield one
// retained trace — addressable by trace ID (from X-Eole-Trace-Id) and
// by request ID — whose spans cover HTTP handling, the cache probe and
// both simulation phases, with ?format=svg rendering a well-formed
// timeline.
func TestDebugTracesEndToEnd(t *testing.T) {
	h, _ := newTracedHandler(t)
	rec := postJSON(t, h, "/v1/simulate", wireRequest{Config: namedRef("EOLE_4_64"), Workload: "gzip"})
	if rec.Code != http.StatusOK {
		t.Fatalf("simulate: status %d: %s", rec.Code, rec.Body.String())
	}
	traceID := rec.Header().Get(obs.TraceResponseHeader)
	if traceID == "" {
		t.Fatal("response missing " + obs.TraceResponseHeader)
	}
	requestID := rec.Header().Get(obs.RequestIDHeader)

	var list debugTracesResponse
	if rec := getJSON(t, h, "/v1/debug/traces", &list); rec.Code != http.StatusOK {
		t.Fatalf("list: status %d", rec.Code)
	}
	if !list.Enabled || len(list.Traces) == 0 {
		t.Fatalf("listing enabled=%v with %d traces, want enabled with >= 1", list.Enabled, len(list.Traces))
	}
	// The listing endpoint's own trace may have landed first; the
	// simulate trace must be present with its root named.
	var sum *obs.TraceSummary
	for i := range list.Traces {
		if list.Traces[i].TraceID == traceID {
			sum = &list.Traces[i]
		}
	}
	if sum == nil {
		t.Fatalf("trace %s absent from listing", traceID)
	}
	if sum.Root != "http.request" || sum.RequestID != requestID {
		t.Errorf("summary root=%q request=%q, want http.request/%q", sum.Root, sum.RequestID, requestID)
	}

	var tr obs.Trace
	if rec := getJSON(t, h, "/v1/debug/traces/"+traceID, &tr); rec.Code != http.StatusOK {
		t.Fatalf("get by trace ID: status %d", rec.Code)
	}
	names := spanNames(tr)
	for _, want := range []string{"http.request", "cache.probe", "queue.wait", "sim.warm", "sim.detailed"} {
		if !names[want] {
			t.Errorf("trace missing span %q (has %v)", want, names)
		}
	}

	// The same trace must resolve by request ID — the header clients
	// already log.
	var byReq obs.Trace
	if rec := getJSON(t, h, "/v1/debug/traces/"+requestID, &byReq); rec.Code != http.StatusOK {
		t.Fatalf("get by request ID: status %d", rec.Code)
	}
	if byReq.TraceID != traceID {
		t.Errorf("request-ID lookup returned trace %s, want %s", byReq.TraceID, traceID)
	}

	req := httptest.NewRequest(http.MethodGet, "/v1/debug/traces/"+traceID+"?format=svg", nil)
	srec := httptest.NewRecorder()
	h.ServeHTTP(srec, req)
	if srec.Code != http.StatusOK {
		t.Fatalf("svg: status %d: %s", srec.Code, srec.Body.String())
	}
	if ct := srec.Header().Get("Content-Type"); ct != svgContentType {
		t.Errorf("svg Content-Type = %q, want %q", ct, svgContentType)
	}
	var node struct{}
	if err := xml.Unmarshal(srec.Body.Bytes(), &node); err != nil {
		t.Fatalf("svg not well-formed XML: %v", err)
	}
	if body := srec.Body.String(); !strings.Contains(body, "sim.detailed") {
		t.Error("svg timeline missing the sim.detailed row")
	}
}

// TestDebugTraceJobSpans: an async job's trace must carry the job.run
// envelope and one job.cell per cell, and the span-derived histograms
// must appear populated on /metrics.
func TestDebugTraceJobSpans(t *testing.T) {
	h, _ := newTracedHandler(t)
	resp := createJob(t, h, wireRequest{Config: namedRef("EOLE_4_64"), Workload: "namd"})
	waitJobState(t, h, resp.StatusURL, jobs.StateDone)

	// The job ran from the creating request's trace: find it via the
	// create response's request ID is not echoed here, so scan the ring
	// for the job.run span instead.
	var list debugTracesResponse
	getJSON(t, h, "/v1/debug/traces", &list)
	var tr obs.Trace
	found := false
	for _, sum := range list.Traces {
		var cand obs.Trace
		if rec := getJSON(t, h, "/v1/debug/traces/"+sum.TraceID, &cand); rec.Code != http.StatusOK {
			continue
		}
		if names := spanNames(cand); names["job.run"] {
			tr, found = cand, true
			break
		}
	}
	if !found {
		t.Fatal("no retained trace carries a job.run span")
	}
	names := spanNames(tr)
	for _, want := range []string{"http.request", "job.run", "job.cell", "sim.warm", "sim.detailed"} {
		if !names[want] {
			t.Errorf("job trace missing span %q (has %v)", want, names)
		}
	}

	mreq := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	mrec := httptest.NewRecorder()
	h.ServeHTTP(mrec, mreq)
	text := mrec.Body.String()
	if err := obs.Lint(mrec.Body.Bytes()); err != nil {
		t.Fatalf("exposition fails lint: %v", err)
	}
	if !strings.Contains(text, "eole_job_duration_seconds_count 1") {
		t.Errorf("eole_job_duration_seconds not observed once:\n%s", grepMetric(text, "eole_job_duration_seconds"))
	}
	if !strings.Contains(text, "eole_job_queue_wait_seconds_count 1") {
		t.Errorf("eole_job_queue_wait_seconds not observed once:\n%s", grepMetric(text, "eole_job_queue_wait_seconds"))
	}
}

// TestDebugTracesDisabled: without a tracer the listing answers
// enabled=false with an empty array and lookups 404 with a hint,
// rather than the endpoints vanishing from the route table.
func TestDebugTracesDisabled(t *testing.T) {
	h := newTestHandler(t) // no tracer
	var list debugTracesResponse
	if rec := getJSON(t, h, "/v1/debug/traces", &list); rec.Code != http.StatusOK {
		t.Fatalf("list: status %d", rec.Code)
	}
	if list.Enabled || list.Traces == nil || len(list.Traces) != 0 {
		t.Errorf("disabled listing = %+v, want enabled=false with empty traces", list)
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/debug/traces/deadbeef", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("lookup on disabled tracer: status %d, want 404", rec.Code)
	}
	var er errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || !strings.Contains(er.Error, "tracing disabled") {
		t.Errorf("error = %q, want a tracing-disabled hint", er.Error)
	}
}

// TestDebugTraceNotFound: an enabled tracer still 404s unknown IDs.
func TestDebugTraceNotFound(t *testing.T) {
	h, _ := newTracedHandler(t)
	req := httptest.NewRequest(http.MethodGet, "/v1/debug/traces/no-such-trace", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("status %d, want 404", rec.Code)
	}
}
