package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"eole/internal/cluster"
	"eole/internal/golden"
	"eole/internal/obs"
	"eole/internal/simsvc"
)

// TestExpositionShape pins what /metrics declares after a fixed request
// sequence — every family's HELP and TYPE line and every series' name
// and labels, in order — with each sample value masked, so the golden
// moves only when a metric is added, renamed, relabeled or reordered.
// The sequence touches every kind of per-route series: a /v1/simulate
// miss, the same request revalidated to a 304, a two-cell /v1/sweep,
// and a malformed body answered 400.
func TestExpositionShape(t *testing.T) {
	t.Run("single", func(t *testing.T) {
		golden.Check(t, "testdata/exposition_single.golden", maskExposition(scrapeAfterSequence(t, newTestHandler(t)), nil))
	})
	t.Run("cluster", func(t *testing.T) {
		worker := newWorker(t, serverOptions{defaultWarmup: 2_000, defaultMeasure: 5_000, maxUops: 1_000_000})
		coord := newCoordinator(t, cluster.Options{Workers: []string{worker.URL}})
		// Not newTestService: its goroutine check would run before the
		// coordinator's connections to the worker are closed.
		svc, err := simsvc.New(simsvc.Options{Parallelism: 1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(svc.Close)
		h := newServer(svc, serverOptions{defaultWarmup: 2_000, defaultMeasure: 5_000, maxUops: 1_000_000, coord: coord})
		golden.Check(t, "testdata/exposition_cluster.golden",
			maskExposition(scrapeAfterSequence(t, h), strings.NewReplacer(worker.URL, "WORKER")))
	})
}

// TestRouteRecord: one record per route path feeds both /v1/stats and
// /metrics — requests by status code, errors (4xx and 5xx only), 304
// answers and the latency histogram — so the two report the same
// counts.
func TestRouteRecord(t *testing.T) {
	h := newTestHandler(t)
	text := scrapeAfterSequence(t, h)
	for _, want := range []string{
		`eole_http_requests_total{path="/v1/simulate",code="200"} 1`,
		`eole_http_requests_total{path="/v1/simulate",code="304"} 1`,
		`eole_http_requests_total{path="/v1/simulate",code="400"} 1`,
		`eole_http_requests_total{path="/v1/sweep",code="200"} 1`,
		`eole_http_request_errors_total{path="/v1/simulate"} 1`,
		`eole_http_not_modified_total{path="/v1/simulate"} 1`,
		`eole_http_request_duration_seconds_count{path="/v1/simulate"} 3`,
		`eole_http_request_duration_seconds_bucket{path="/v1/sweep",le="+Inf"} 1`,
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("exposition lacks %q:\n%s", want, grepMetric(text, "eole_http_"))
		}
	}
	if strings.Contains(text, `eole_http_request_errors_total{path="/v1/sweep"}`) {
		t.Error("a route with only 2xx answers has an error series")
	}
	var st statsResponse
	if rec := getJSON(t, h, "/v1/stats", &st); rec.Code != http.StatusOK {
		t.Fatalf("/v1/stats: %d", rec.Code)
	}
	for path, want := range map[string]cluster.EndpointStats{
		"/v1/simulate": {Requests: 3, Errors: 1},
		"/v1/sweep":    {Requests: 1},
		"/v1/configs":  {},
	} {
		if got := st.Endpoints[path]; got != want {
			t.Errorf("/v1/stats endpoints[%s] = %+v, want %+v", path, got, want)
		}
	}
}

// scrapeAfterSequence runs the fixed request sequence on h and returns
// the /metrics scrape that follows it, checked by obs.Lint.
func scrapeAfterSequence(t *testing.T, h http.Handler) string {
	t.Helper()
	sim := wireRequest{Config: namedRef("EOLE_4_64"), Workload: "gzip"}
	rec := postJSON(t, h, "/v1/simulate", sim)
	if rec.Code != http.StatusOK {
		t.Fatalf("simulate: status %d: %s", rec.Code, rec.Body.String())
	}
	req := httptest.NewRequest(http.MethodPost, "/v1/simulate", strings.NewReader(`{"config":"EOLE_4_64","workload":"gzip"}`))
	req.Header.Set("If-None-Match", rec.Header().Get("ETag"))
	rev := httptest.NewRecorder()
	h.ServeHTTP(rev, req)
	if rev.Code != http.StatusNotModified {
		t.Fatalf("revalidation: status %d, want 304", rev.Code)
	}
	if rec := postJSON(t, h, "/v1/sweep", wireRequest{
		Configs:   []configRef{namedRef("EOLE_4_64")},
		Workloads: []string{"gzip", "namd"},
	}); rec.Code != http.StatusOK {
		t.Fatalf("sweep: status %d: %s", rec.Code, rec.Body.String())
	}
	bad := httptest.NewRecorder()
	h.ServeHTTP(bad, httptest.NewRequest(http.MethodPost, "/v1/simulate", strings.NewReader("{")))
	if bad.Code != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d, want 400", bad.Code)
	}
	mrec := httptest.NewRecorder()
	h.ServeHTTP(mrec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if err := obs.Lint(mrec.Body.Bytes()); err != nil {
		t.Fatalf("exposition fails lint: %v", err)
	}
	return mrec.Body.String()
}

// maskExposition replaces every sample value of an exposition with "X"
// and rewrites its labels through r (for values such as a test
// server's URL that differ from run to run).
func maskExposition(text string, r *strings.Replacer) []byte {
	var b strings.Builder
	for _, line := range strings.SplitAfter(text, "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			line = line[:strings.LastIndexByte(line, ' ')] + " X\n"
			if r != nil {
				line = r.Replace(line)
			}
		}
		b.WriteString(line)
	}
	return []byte(b.String())
}
