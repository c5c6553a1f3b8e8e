package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"eole/internal/cluster"
	"eole/internal/obs"
	"eole/internal/simsvc"
)

// TestMetricsEndpoint: after one simulation, /metrics must serve a
// lint-clean exposition whose counters reflect the work done across
// every layer — service, HTTP and runtime.
func TestMetricsEndpoint(t *testing.T) {
	h := newTestHandler(t)
	rec := postJSON(t, h, "/v1/simulate", wireRequest{Config: namedRef("EOLE_4_64"), Workload: "gzip"})
	if rec.Code != http.StatusOK {
		t.Fatalf("simulate: status %d: %s", rec.Code, rec.Body.String())
	}

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	mrec := httptest.NewRecorder()
	h.ServeHTTP(mrec, req)
	if mrec.Code != http.StatusOK {
		t.Fatalf("/metrics: status %d", mrec.Code)
	}
	if ct := mrec.Header().Get("Content-Type"); ct != obs.ExpositionContentType {
		t.Errorf("Content-Type = %q, want %q", ct, obs.ExpositionContentType)
	}
	body := mrec.Body.Bytes()
	if err := obs.Lint(body); err != nil {
		t.Fatalf("exposition fails lint: %v\n%s", err, body)
	}

	text := string(body)
	// Service layer: the simulate above was a cache miss, so exactly
	// one simulation ran.
	if !strings.Contains(text, "eole_sims_run_total 1") {
		t.Errorf("eole_sims_run_total not 1:\n%s", grepMetric(text, "eole_sims_run_total"))
	}
	// HTTP layer: the POST was observed under its route pattern.
	if !strings.Contains(text, `eole_http_requests_total{path="/v1/simulate",code="200"} 1`) {
		t.Errorf("missing HTTP request counter:\n%s", grepMetric(text, "eole_http_requests_total"))
	}
	if !strings.Contains(text, `eole_http_request_duration_seconds_count{path="/v1/simulate"} 1`) {
		t.Errorf("missing HTTP latency histogram:\n%s", grepMetric(text, "eole_http_request_duration_seconds_count"))
	}
	// Runtime layer.
	if !strings.Contains(text, "go_goroutines ") {
		t.Error("missing go_goroutines gauge")
	}
	// The scrape itself must not appear in the request accounting.
	if strings.Contains(text, `path="/metrics"`) {
		t.Error("/metrics scrape counted itself")
	}
}

// grepMetric pulls the lines mentioning one metric out of an
// exposition, for readable failure messages.
func grepMetric(text, name string) string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, name) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestMetricsClusterWorkers: a coordinator's /metrics carries
// per-worker health series labeled by worker URL.
func TestMetricsClusterWorkers(t *testing.T) {
	worker := newWorker(t, serverOptions{defaultWarmup: 2_000, defaultMeasure: 5_000, maxUops: 1_000_000})
	coord := newCoordinator(t, cluster.Options{Workers: []string{worker.URL}})
	svc, err := simsvc.New(simsvc.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	h := newServer(svc, serverOptions{defaultWarmup: 2_000, defaultMeasure: 5_000, maxUops: 1_000_000, coord: coord})

	rec := postJSON(t, h, "/v1/sweep", wireRequest{
		Configs:   []configRef{namedRef("EOLE_4_64")},
		Workloads: []string{"gzip"},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("cluster sweep: status %d: %s", rec.Code, rec.Body.String())
	}

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	mrec := httptest.NewRecorder()
	h.ServeHTTP(mrec, req)
	body := mrec.Body.Bytes()
	if err := obs.Lint(body); err != nil {
		t.Fatalf("exposition fails lint: %v", err)
	}
	text := string(body)
	label := `worker="` + worker.URL + `"`
	if !strings.Contains(text, "eole_cluster_worker_up{"+label+"} 1") {
		t.Errorf("worker not reported up:\n%s", grepMetric(text, "eole_cluster_worker_up"))
	}
	if !strings.Contains(text, "eole_cluster_dispatched_total{"+label+"} 1") {
		t.Errorf("dispatch not counted:\n%s", grepMetric(text, "eole_cluster_dispatched_total"))
	}
}

// TestRequestIDEcho: every response carries X-Eole-Request-Id — a
// fresh ID normally, the caller's own when it supplies a valid one.
func TestRequestIDEcho(t *testing.T) {
	h := newTestHandler(t)

	req := httptest.NewRequest(http.MethodGet, "/v1/healthz", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if id := rec.Header().Get(obs.RequestIDHeader); !obs.ValidRequestID(id) {
		t.Errorf("generated request ID %q invalid", id)
	}

	req = httptest.NewRequest(http.MethodGet, "/v1/healthz", nil)
	req.Header.Set(obs.RequestIDHeader, "trace-0042")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if id := rec.Header().Get(obs.RequestIDHeader); id != "trace-0042" {
		t.Errorf("valid caller ID not adopted: got %q", id)
	}
}

// eoled serves data and clients draw it: the figure routes are gone
// (experiments -figdir and eolesim -svg render the same tables), so a
// figure URL finds no route.
func assertNotFound(t *testing.T, h http.Handler, paths ...string) {
	t.Helper()
	for _, path := range paths {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, rec.Code)
		}
	}
}

// TestFiguresIndex: the figure index is retired with the routes; the
// experiments command lists and draws the paper's figures.
func TestFiguresIndex(t *testing.T) {
	assertNotFound(t, newTestHandler(t), "/v1/figures", "/v1/figures/")
}

// TestFigureErrors: every figure URL answers 404, the ones the route
// used to reject with 400 as well as the ones it used to draw, because
// no parameter of a figure request is read any more.
func TestFigureErrors(t *testing.T) {
	assertNotFound(t, newTestHandler(t),
		"/v1/figures/ipc", "/v1/figures/figure6", "/v1/figures/figure6?kind=heatmap",
		"/v1/figures/figure99", "/v1/figures/ipc?kind=pie", "/v1/figures/ipc?configs=NoSuch",
		"/v1/figures/ipc?workloads=nope", "/v1/figures/ipc?warmup=xyz", "/v1/figures/table1")
}

// TestRetiredSVGSurface: a trace asked for as ?format=svg is the
// trace's JSON; the parameter is not read (eolectl trace draws the
// span tree).
func TestRetiredSVGSurface(t *testing.T) {
	h, _ := newTracedHandler(t)
	rec := postJSON(t, h, "/v1/simulate", wireRequest{Config: namedRef("EOLE_4_64"), Workload: "gzip"})
	if rec.Code != http.StatusOK {
		t.Fatalf("simulate: status %d: %s", rec.Code, rec.Body.String())
	}
	traceID := rec.Header().Get(obs.TraceResponseHeader)
	var plain, svg obs.Trace
	prec := getJSON(t, h, "/v1/debug/traces/"+traceID, &plain)
	srec := getJSON(t, h, "/v1/debug/traces/"+traceID+"?format=svg", &svg)
	if prec.Code != http.StatusOK || srec.Code != http.StatusOK {
		t.Fatalf("trace: status %d plain, %d with ?format=svg", prec.Code, srec.Code)
	}
	if ct := srec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("?format=svg Content-Type = %q, want JSON", ct)
	}
	if srec.Body.String() != prec.Body.String() {
		t.Errorf("?format=svg body differs from the plain trace JSON:\n%s\nvs\n%s", srec.Body, prec.Body)
	}
}
