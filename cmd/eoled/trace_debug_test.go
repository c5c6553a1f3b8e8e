package main

import (
	"encoding/json"
	"encoding/xml"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"eole/internal/obs"
	"eole/internal/simsvc"
)

// newTracedHandler builds a fully traced stack — service and HTTP
// layer sharing one tracer — as -trace-ring would wire in production.
func newTracedHandler(t *testing.T) (http.Handler, *obs.Tracer) {
	t.Helper()
	tracer := obs.NewTracer("eoled@test", 64)
	svc := newTestService(t, simsvc.Options{Parallelism: 2, Tracer: tracer})
	h := newServer(svc, serverOptions{
		defaultWarmup:  2_000,
		defaultMeasure: 5_000,
		maxUops:        1_000_000,
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

// TestDebugTraceJobSpans: a sweep's trace carries every cold cell's
// service-job spans (queue wait, warm, detailed run) under the request,
// and each queue wait feeds the span-derived eole_queue_wait_seconds
// histogram on /metrics.
func TestDebugTraceJobSpans(t *testing.T) {
	h, _ := newTracedHandler(t)
	rec := postJSON(t, h, "/v1/sweep", wireRequest{Configs: []configRef{namedRef("EOLE_4_64")}, Workloads: []string{"gzip", "namd"}})
	if rec.Code != http.StatusOK {
		t.Fatalf("sweep: status %d: %s", rec.Code, rec.Body.String())
	}
	var tr obs.Trace
	if rec := getJSON(t, h, "/v1/debug/traces/"+rec.Header().Get(obs.TraceResponseHeader), &tr); rec.Code != http.StatusOK {
		t.Fatalf("get trace: status %d", rec.Code)
	}
	count := map[string]int{}
	for _, sp := range tr.Spans {
		count[sp.Name]++
	}
	for _, name := range []string{"queue.wait", "sim.warm", "sim.detailed"} {
		if count[name] != 2 || count["http.request"] != 1 {
			t.Errorf("sweep trace has %d %s spans under %d http.request, want 2 under 1 (has %v)", count[name], name, count["http.request"], count)
		}
	}

	mreq := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	mrec := httptest.NewRecorder()
	h.ServeHTTP(mrec, mreq)
	text := mrec.Body.String()
	if err := obs.Lint(mrec.Body.Bytes()); err != nil {
		t.Fatalf("exposition fails lint: %v", err)
	}
	if !strings.Contains(text, "eole_queue_wait_seconds_count 2") {
		t.Errorf("eole_queue_wait_seconds not observed twice:\n%s", grepMetric(text, "eole_queue_wait_seconds"))
	}
	if strings.Contains(text, "eole_job_") {
		t.Errorf("a job-API metric is still exported:\n%s", grepMetric(text, "eole_job_"))
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
