package main

import (
	"encoding/xml"
	"errors"
	"io"
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

// TestFiguresIndex lists the paper artefacts and the ad-hoc ipc
// figure, but not the text-only ones.
func TestFiguresIndex(t *testing.T) {
	h := newTestHandler(t)
	var idx figuresIndex
	rec := getJSON(t, h, "/v1/figures", &idx)
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	has := make(map[string]bool, len(idx.Figures))
	for _, id := range idx.Figures {
		has[id] = true
	}
	for _, want := range []string{"figure6", "table2", "ipc"} {
		if !has[want] {
			t.Errorf("index missing %q: %v", want, idx.Figures)
		}
	}
	for _, textOnly := range []string{"table1", "section6"} {
		if has[textOnly] {
			t.Errorf("index lists text-only artefact %q", textOnly)
		}
	}
}

// fetchFigure GETs one figure URL and returns the SVG bytes.
func fetchFigure(t *testing.T, h http.Handler, url string) []byte {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, url, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != svgContentType {
		t.Errorf("GET %s: Content-Type = %q", url, ct)
	}
	return rec.Body.Bytes()
}

// TestFigureSVG: the ipc figure renders well-formed SVG and — the
// service's determinism promise — byte-identical bytes on every fetch.
func TestFigureSVG(t *testing.T) {
	h := newTestHandler(t)
	const url = "/v1/figures/ipc?configs=EOLE_4_64&workloads=gzip,namd&warmup=2000&measure=5000"
	svg := fetchFigure(t, h, url)
	if err := wellFormedXML(svg); err != nil {
		t.Fatalf("malformed SVG: %v\n%s", err, svg)
	}
	if !strings.Contains(string(svg), "gzip") {
		t.Error("figure missing workload label")
	}
	again := fetchFigure(t, h, url)
	if string(svg) != string(again) {
		t.Error("same figure URL returned different bytes")
	}
	heat := fetchFigure(t, h, url+"&kind=heatmap")
	if err := wellFormedXML(heat); err != nil {
		t.Fatalf("malformed heatmap SVG: %v", err)
	}
}

// TestFigurePaper renders one real paper artefact end to end through
// the experiments harness (a single workload keeps it fast).
func TestFigurePaper(t *testing.T) {
	h := newTestHandler(t)
	svg := fetchFigure(t, h, "/v1/figures/figure6?workloads=gzip&warmup=2000&measure=5000")
	if err := wellFormedXML(svg); err != nil {
		t.Fatalf("malformed SVG: %v", err)
	}
	if !strings.Contains(string(svg), `stroke-dasharray`) {
		t.Error("figure6 should draw its speedup-1.0 reference line")
	}
}

func TestFigureErrors(t *testing.T) {
	h := newTestHandler(t)
	for _, tc := range []struct{ name, url string }{
		{"unknown id", "/v1/figures/figure99"},
		{"unknown kind", "/v1/figures/ipc?kind=pie"},
		{"unknown config", "/v1/figures/ipc?configs=NoSuch"},
		{"unknown workload", "/v1/figures/ipc?workloads=nope"},
		{"bad warmup", "/v1/figures/ipc?warmup=xyz"},
		{"text-only artefact", "/v1/figures/table1"},
	} {
		req := httptest.NewRequest(http.MethodGet, tc.url, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", tc.name, rec.Code, rec.Body.String())
		}
	}
}

// wellFormedXML runs the bytes through a full XML parse.
func wellFormedXML(b []byte) error {
	dec := xml.NewDecoder(strings.NewReader(string(b)))
	for {
		if _, err := dec.Token(); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
	}
}
