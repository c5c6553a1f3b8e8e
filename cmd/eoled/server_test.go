package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"eole"
	"eole/internal/cluster"
	"eole/internal/simsvc"
)

// newTestHandler spins up a service + handler with short default run
// lengths so the suite stays fast.
func newTestHandler(t *testing.T) http.Handler {
	t.Helper()
	svc := newTestService(t, simsvc.Options{Parallelism: 2})
	return newServer(svc, serverOptions{defaultWarmup: 2_000, defaultMeasure: 5_000, maxUops: 1_000_000})
}

func postJSON(t testing.TB, h http.Handler, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(b))
	req.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func getJSON(t *testing.T, h http.Handler, path string, out any) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if out != nil && rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), out); err != nil {
			t.Fatalf("GET %s: bad JSON: %v", path, err)
		}
	}
	return rec
}

func TestSimulateRoundTrip(t *testing.T) {
	h := newTestHandler(t)
	rec := postJSON(t, h, "/v1/simulate", wireRequest{Config: namedRef("EOLE_4_64"), Workload: "namd"})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var r eole.Report
	if err := json.Unmarshal(rec.Body.Bytes(), &r); err != nil {
		t.Fatal(err)
	}
	if r.Config != "EOLE_4_64" || r.Benchmark != "namd" {
		t.Errorf("report identifies %s on %s", r.Config, r.Benchmark)
	}
	if r.IPC <= 0 || r.Cycles == 0 {
		t.Errorf("degenerate report: IPC %v over %d cycles", r.IPC, r.Cycles)
	}
	if r.Raw().Committed == 0 {
		t.Error("raw counters must survive the wire")
	}
}

func TestSimulateValidation(t *testing.T) {
	h := newTestHandler(t)
	for _, tc := range []struct {
		name string
		req  wireRequest
	}{
		{"unknown config", wireRequest{Config: namedRef("NoSuch"), Workload: "namd"}},
		{"unknown workload", wireRequest{Config: namedRef("EOLE_4_64"), Workload: "nope"}},
		{"over limit", wireRequest{Config: namedRef("EOLE_4_64"), Workload: "namd", Measure: 2_000_000}},
		{"uint64 overflow", wireRequest{Config: namedRef("EOLE_4_64"), Workload: "namd", Warmup: math.MaxUint64, Measure: 2}},
	} {
		rec := postJSON(t, h, "/v1/simulate", tc.req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, rec.Code)
		}
		var e errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body missing", tc.name)
		}
	}
	// Malformed JSON body.
	req := httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader([]byte("{")))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", rec.Code)
	}
}

// TestConcurrentSweeps is the acceptance check: concurrent /v1/sweep
// requests that share a baseline column all succeed with valid
// reports, and the shared key simulates exactly once service-wide.
func TestConcurrentSweeps(t *testing.T) {
	svc := newTestService(t, simsvc.Options{Parallelism: 4})
	h := newServer(svc, serverOptions{defaultWarmup: 2_000, defaultMeasure: 5_000, maxUops: 1_000_000})

	sweeps := []wireRequest{
		{Configs: []configRef{namedRef("Baseline_6_64"), namedRef("EOLE_4_64")}, Workloads: []string{"gzip", "art"}},
		{Configs: []configRef{namedRef("Baseline_6_64"), namedRef("EOLE_6_64")}, Workloads: []string{"gzip", "art"}},
		{Configs: []configRef{namedRef("Baseline_6_64")}, Workloads: []string{"gzip", "art", "crafty"}},
	}
	var wg sync.WaitGroup
	recs := make([]*httptest.ResponseRecorder, len(sweeps))
	for i, sw := range sweeps {
		wg.Add(1)
		go func(i int, sw wireRequest) {
			defer wg.Done()
			recs[i] = postJSON(t, h, "/v1/sweep", sw)
		}(i, sw)
	}
	wg.Wait()

	for i, rec := range recs {
		if rec.Code != http.StatusOK {
			t.Fatalf("sweep %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
		var resp sweepResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("sweep %d: %v", i, err)
		}
		want := len(sweeps[i].Configs) * len(sweeps[i].Workloads)
		if len(resp.Results) != want {
			t.Fatalf("sweep %d: %d results, want %d", i, len(resp.Results), want)
		}
		for _, res := range resp.Results {
			if res.Error != "" {
				t.Errorf("sweep %d: %s on %s: %s", i, res.Config, res.Workload, res.Error)
				continue
			}
			if res.Report == nil || res.Report.IPC <= 0 {
				t.Errorf("sweep %d: %s on %s: invalid report", i, res.Config, res.Workload)
			}
		}
	}

	// 7 unique (config, workload) pairs across the three sweeps:
	// Baseline×{gzip,art,crafty}, EOLE_4_64×{gzip,art}, EOLE_6_64×{gzip,art}.
	if st := svc.Stats(); st.SimsRun != 7 {
		t.Errorf("SimsRun = %d, want 7 (one per unique key across concurrent sweeps)", st.SimsRun)
	}
}

func TestSweepPerJobErrors(t *testing.T) {
	h := newTestHandler(t)
	// An unknown config in a sweep fails the request up front (the
	// grid cannot be built).
	rec := postJSON(t, h, "/v1/sweep", wireRequest{
		Configs: []configRef{namedRef("NoSuch")}, Workloads: []string{"gzip"},
	})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("unknown config: status %d, want 400", rec.Code)
	}
}

func TestSweepResourceLimits(t *testing.T) {
	h := newTestHandler(t)
	// A grid larger than maxSweepCells is rejected before any name
	// resolution or job submission.
	big := make([]configRef, maxSweepCells)
	for i := range big {
		big[i] = namedRef("EOLE_4_64")
	}
	rec := postJSON(t, h, "/v1/sweep", wireRequest{Configs: big, Workloads: []string{"gzip", "art"}})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("oversized grid: status %d, want 400", rec.Code)
	}
	// An oversized request body is rejected by MaxBytesReader.
	body := bytes.Repeat([]byte("x"), maxBodyBytes+1)
	req := httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader(body))
	rec2 := httptest.NewRecorder()
	h.ServeHTTP(rec2, req)
	if rec2.Code != http.StatusBadRequest {
		t.Errorf("oversized body: status %d, want 400", rec2.Code)
	}
}

func TestListingAndStats(t *testing.T) {
	h := newTestHandler(t)

	var cfgs struct {
		Configs []string `json:"configs"`
	}
	if rec := getJSON(t, h, "/v1/configs", &cfgs); rec.Code != http.StatusOK {
		t.Fatalf("/v1/configs: %d", rec.Code)
	}
	if len(cfgs.Configs) == 0 {
		t.Error("no configs listed")
	}

	var wls struct {
		Workloads []workloadInfo `json:"workloads"`
	}
	if rec := getJSON(t, h, "/v1/workloads", &wls); rec.Code != http.StatusOK {
		t.Fatalf("/v1/workloads: %d", rec.Code)
	}
	// The Table 3 suite plus the long-* phased family.
	if want := 19 + len(eole.LongWorkloads()); len(wls.Workloads) != want {
		t.Errorf("%d workloads, want %d", len(wls.Workloads), want)
	}

	// Run one sim, then check the counters moved.
	if rec := postJSON(t, h, "/v1/simulate", wireRequest{Config: namedRef("EOLE_4_64"), Workload: "gzip"}); rec.Code != http.StatusOK {
		t.Fatalf("simulate: %d", rec.Code)
	}
	var st simsvc.Stats
	if rec := getJSON(t, h, "/v1/stats", &st); rec.Code != http.StatusOK {
		t.Fatalf("/v1/stats: %d", rec.Code)
	}
	if st.SimsRun != 1 || st.JobsSubmitted != 1 {
		t.Errorf("stats: %+v", st)
	}
}

func TestMethodRouting(t *testing.T) {
	h := newTestHandler(t)
	// GET on a POST route and vice versa must 405, not panic; the job
	// API's routes are gone, so each of them is a 404.
	for _, tc := range []struct {
		method, path string
		status       int
	}{
		{http.MethodGet, "/v1/simulate", http.StatusMethodNotAllowed},
		{http.MethodPost, "/v1/configs", http.StatusMethodNotAllowed},
		{http.MethodPost, "/v1/jobs", http.StatusNotFound},
		{http.MethodGet, "/v1/jobs", http.StatusNotFound},
		{http.MethodGet, "/v1/jobs/d6f916e0782c082c", http.StatusNotFound},
		{http.MethodDelete, "/v1/jobs/d6f916e0782c082c", http.StatusNotFound},
		{http.MethodGet, "/v1/jobs/d6f916e0782c082c/events", http.StatusNotFound},
	} {
		req := httptest.NewRequest(tc.method, tc.path, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != tc.status {
			t.Errorf("%s %s: status %d, want %d", tc.method, tc.path, rec.Code, tc.status)
		}
	}
}

// TestHealthz checks the liveness endpoint: cheap, JSON, and carrying
// the identity fields the cluster prober and load balancers key on.
func TestHealthz(t *testing.T) {
	svc := newTestService(t, simsvc.Options{Parallelism: 2})
	h := newServer(svc, serverOptions{defaultWarmup: 1_000, defaultMeasure: 3_000, maxUops: 1_000_000, version: "test-1"})

	var health cluster.Health
	if rec := getJSON(t, h, "/v1/healthz", &health); rec.Code != http.StatusOK {
		t.Fatalf("/v1/healthz: %d", rec.Code)
	}
	if health.Status != "ok" || health.Version != "test-1" {
		t.Errorf("healthz identity: %+v", health)
	}
	if health.Parallelism != 2 || health.Coordinator {
		t.Errorf("healthz shape: %+v", health)
	}
}

// TestEndpointCounters checks that /v1/stats attributes requests and
// errors per endpoint (what merged cluster stats use to attribute load
// per worker) while remaining decodable as plain simsvc.Stats.
func TestEndpointCounters(t *testing.T) {
	h := newTestHandler(t)
	if rec := postJSON(t, h, "/v1/simulate", wireRequest{Config: namedRef("EOLE_4_64"), Workload: "gzip"}); rec.Code != http.StatusOK {
		t.Fatalf("simulate: %d", rec.Code)
	}
	if rec := postJSON(t, h, "/v1/simulate", wireRequest{Config: namedRef("NoSuch"), Workload: "gzip"}); rec.Code != http.StatusBadRequest {
		t.Fatalf("bad simulate: %d, want 400", rec.Code)
	}
	var st statsResponse
	if rec := getJSON(t, h, "/v1/stats", &st); rec.Code != http.StatusOK {
		t.Fatalf("/v1/stats: %d", rec.Code)
	}
	sim := st.Endpoints["/v1/simulate"]
	if sim.Requests != 2 || sim.Errors != 1 {
		t.Errorf("/v1/simulate counters = %+v, want 2 requests / 1 error", sim)
	}
	if st.Endpoints["/v1/stats"].Requests != 1 {
		t.Errorf("/v1/stats did not count itself: %+v", st.Endpoints["/v1/stats"])
	}
	// Flattened service counters stay top-level for pre-cluster
	// clients.
	if st.SimsRun != 1 {
		t.Errorf("embedded SimsRun = %d, want 1", st.SimsRun)
	}
}

// TestRequestFormPerEndpoint: one wire type serves both endpoints, but
// /v1/simulate takes only the simulate form and /v1/sweep only the
// sweep form — the other form's fields are unknown fields there, in
// the strict decoder's words.
func TestRequestFormPerEndpoint(t *testing.T) {
	svc := newTestService(t, simsvc.Options{Parallelism: 2})
	h := newServer(svc, serverOptions{defaultWarmup: 1_000, defaultMeasure: 3_000, maxUops: 1_000_000})
	const cell, grid = `"config":"EOLE_4_64","workload":"gzip"`, `"configs":["EOLE_4_64"],"workloads":["gzip"]`
	for _, tc := range []struct {
		path, body string
		status     int
		says       string
	}{
		{"/v1/simulate", `{` + cell + `}`, http.StatusOK, ""},
		{"/v1/simulate", `{` + grid + `}`, http.StatusBadRequest, `unknown field "configs"`},
		{"/v1/simulate", `{"config":"EOLE_4_64","workloads":["gzip"]}`, http.StatusBadRequest, `unknown field "workloads"`},
		{"/v1/simulate", `{}`, http.StatusBadRequest, "names no config"},
		{"/v1/sweep", `{` + grid + `}`, http.StatusOK, ""},
		{"/v1/sweep", `{` + cell + `}`, http.StatusBadRequest, `unknown field "config"`},
		{"/v1/sweep", `{"workload":"gzip"}`, http.StatusBadRequest, `unknown field "workload"`},
		{"/v1/sweep", `{"config":null,` + grid + `}`, http.StatusOK, ""},
		{"/v1/simulate", `{` + cell + `,` + grid + `}`, http.StatusBadRequest, `unknown field "configs"`},
	} {
		rec := postJSON(t, h, tc.path, json.RawMessage(tc.body))
		var e errorResponse
		_ = json.Unmarshal(rec.Body.Bytes(), &e) // a success body has no "error" member
		if rec.Code != tc.status || !strings.Contains(e.Error, tc.says) {
			t.Errorf("POST %s %s: %d %q, want %d mentioning %q", tc.path, tc.body, rec.Code, e.Error, tc.status, tc.says)
		}
	}
}

// TestQueueBackpressure429 fills the one-worker service past its
// queue bound and checks the next request is answered 429 with a
// Retry-After hint instead of queueing unboundedly.
func TestQueueBackpressure429(t *testing.T) {
	svc := newTestService(t, simsvc.Options{Parallelism: 1})
	h := newServer(svc, serverOptions{defaultWarmup: 1_000, defaultMeasure: 3_000, maxUops: 10_000_000, maxQueue: 1})

	// Warm one cell before saturating: it must keep being served even
	// at full queue depth.
	if rec := postJSON(t, h, "/v1/simulate", wireRequest{Config: namedRef("EOLE_4_64"), Workload: "gzip"}); rec.Code != http.StatusOK {
		t.Fatalf("warm simulate: %d", rec.Code)
	}

	// Occupy the single worker and park one more unique simulation in
	// the queue, bypassing the handler so nothing here can 429.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := uint64(0); i < 2; i++ {
		cfg, err := eole.NamedConfig("EOLE_4_64")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := svc.Submit(ctx, simsvc.Request{
			Config: cfg, Workload: "gzip", Warmup: 10_000 + i, Measure: 2_000_000,
		}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for svc.QueueLen() < 1 {
		if time.Now().After(deadline) {
			t.Fatalf("queue never filled (len %d)", svc.QueueLen())
		}
		time.Sleep(time.Millisecond)
	}

	rec := postJSON(t, h, "/v1/simulate", wireRequest{Config: namedRef("EOLE_4_64"), Workload: "art"})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated server answered %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 without a Retry-After hint")
	}
	var e errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || e.Error == "" {
		t.Error("429 body must carry the error message")
	}
	// Sweeps see the same backpressure.
	if rec := postJSON(t, h, "/v1/sweep", wireRequest{
		Configs: []configRef{namedRef("EOLE_4_64")}, Workloads: []string{"art"},
	}); rec.Code != http.StatusTooManyRequests {
		t.Errorf("saturated sweep answered %d, want 429", rec.Code)
	}
	// But cached work is free: the warm cell keeps being served (and a
	// sweep of only warm cells passes) at full queue depth.
	if rec := postJSON(t, h, "/v1/simulate", wireRequest{Config: namedRef("EOLE_4_64"), Workload: "gzip"}); rec.Code != http.StatusOK {
		t.Errorf("cached simulate answered %d under backpressure, want 200", rec.Code)
	}
	if rec := postJSON(t, h, "/v1/sweep", wireRequest{
		Configs: []configRef{namedRef("EOLE_4_64")}, Workloads: []string{"gzip"},
	}); rec.Code != http.StatusOK {
		t.Errorf("fully-cached sweep answered %d under backpressure, want 200", rec.Code)
	}
}

// TestCanceledQueuedJobFreesAdmission: the cells of a sweep whose
// client goes away while they wait behind a busy worker give their
// queue slots back at once, so the next cold request is admitted
// instead of being refused on behalf of work nobody wants any more.
func TestCanceledQueuedJobFreesAdmission(t *testing.T) {
	svc := newTestService(t, simsvc.Options{Parallelism: 1})
	h := newServer(svc, serverOptions{defaultWarmup: 1_000, defaultMeasure: 3_000, maxUops: 100_000_000, maxQueue: 2})
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s (queue_len %d)", what, svc.QueueLen())
			}
		}
	}

	// Hold the single worker for as long as the test needs it.
	cfg, err := eole.NamedConfig("EOLE_4_64")
	if err != nil {
		t.Fatal(err)
	}
	blockCtx, unblock := context.WithCancel(context.Background())
	defer unblock()
	blocker, err := svc.Submit(blockCtx, simsvc.Request{Config: cfg, Workload: "namd", Warmup: 1_000, Measure: 50_000_000})
	if err != nil {
		t.Fatal(err)
	}
	waitFor("blocker never started", func() bool { return blocker.Status() == simsvc.StatusRunning })

	// An idle queue admits the whole sweep; its three cells then sit
	// behind the blocker and refuse further cold work.
	body, err := json.Marshal(wireRequest{Configs: []configRef{namedRef("EOLE_4_64")}, Workloads: []string{"gzip", "art", "mcf"}})
	if err != nil {
		t.Fatal(err)
	}
	sweepCtx, leave := context.WithCancel(context.Background())
	left := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader(body)).WithContext(sweepCtx))
		left <- rec.Code
	}()
	waitFor("sweep cells never queued", func() bool { return svc.QueueLen() == 3 })
	cold := wireRequest{Config: namedRef("EOLE_4_64"), Workload: "hmmer"}
	if rec := postJSON(t, h, "/v1/simulate", cold); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("cold simulate behind a 3-deep queue answered %d, want 429", rec.Code)
	}

	leave()
	<-left
	waitFor("abandoned sweep's cells still queued", func() bool {
		var st statsResponse
		getJSON(t, h, "/v1/stats", &st)
		return st.QueueLen == 0
	})
	if blocker.Status() != simsvc.StatusRunning {
		t.Fatalf("blocker is %v, want still running", blocker.Status())
	}

	// Admitted now: it queues behind the blocker and completes once
	// the worker is released.
	code := make(chan int, 1)
	go func() { code <- postJSON(t, h, "/v1/simulate", cold).Code }()
	waitFor("cold simulate not queued after the sweep left", func() bool { return svc.QueueLen() == 1 })
	unblock()
	if got := <-code; got != http.StatusOK {
		t.Errorf("cold simulate after the sweep left answered %d, want 200", got)
	}
}

// TestTracesEndpoint runs a small sweep and checks /v1/traces lists the
// recordings.
func TestTracesEndpoint(t *testing.T) {
	svc := newTestService(t, simsvc.Options{Parallelism: 2})
	h := newServer(svc, serverOptions{defaultWarmup: 1_000, defaultMeasure: 4_000, maxUops: 1_000_000})

	var resp tracesResponse
	if rec := getJSON(t, h, "/v1/traces", &resp); rec.Code != http.StatusOK {
		t.Fatalf("/v1/traces: %d", rec.Code)
	}
	if len(resp.Traces) != 0 {
		t.Fatalf("fresh service: %+v", resp)
	}

	// A sampled run streams the recording: the trace is there, and holds
	// nothing decoded until a full run reads it.
	if rec := postJSON(t, h, "/v1/simulate", wireRequest{
		Config: namedRef("EOLE_4_64"), Workload: "gzip",
		Sampling: &eole.SamplingSpec{Windows: 2, Skip: 5_000, Warm: 1_000},
	}); rec.Code != http.StatusOK {
		t.Fatalf("sampled simulate: %d: %s", rec.Code, rec.Body.String())
	}
	if rec := getJSON(t, h, "/v1/traces", &resp); rec.Code != http.StatusOK {
		t.Fatalf("/v1/traces: %d", rec.Code)
	}
	if len(resp.Traces) != 1 || resp.Traces[0].Uops == 0 || resp.Traces[0].DecodedUops != 0 || resp.Traces[0].DecodedBytes != 0 || resp.Traces[0].TrackBytes != 0 {
		t.Fatalf("traces after a streamed replay: %+v, want one with nothing decoded and no track", resp)
	}

	if rec := postJSON(t, h, "/v1/sweep", wireRequest{
		Configs:   []configRef{namedRef("Baseline_6_64"), namedRef("EOLE_4_64")},
		Workloads: []string{"gzip"},
	}); rec.Code != http.StatusOK {
		t.Fatalf("sweep: %d: %s", rec.Code, rec.Body.String())
	}

	if rec := getJSON(t, h, "/v1/traces", &resp); rec.Code != http.StatusOK {
		t.Fatalf("/v1/traces: %d", rec.Code)
	}
	if len(resp.Traces) != 1 || resp.Traces[0].Workload != "gzip" || resp.Traces[0].Uops == 0 {
		t.Fatalf("traces after sweep: %+v", resp)
	}
	if d := resp.Traces[0].DecodedUops; d == 0 || d > resp.Traces[0].Uops {
		t.Errorf("decoded_uops = %d after two full replays of a %d-µ-op trace, want the prefix they read", d, resp.Traces[0].Uops)
	}
	// 4 bytes per decoded µ-op, plus 8 per load or store among them.
	if d, b := resp.Traces[0].DecodedUops, resp.Traces[0].DecodedBytes; b <= 4*d || b > 12*d {
		t.Errorf("decoded_bytes = %d for %d decoded µ-ops of gzip, want more than 4 and at most 12 per µ-op", b, d)
	}
	// One track per predictor key (Baseline_6_64 predicts no values),
	// each a byte per µ-op of the prefix the runs read.
	if b := resp.Traces[0].TrackBytes; b == 0 || b > 2*resp.Traces[0].Uops {
		t.Errorf("track_bytes = %d after full replays under two predictor keys of a %d-µ-op trace", b, resp.Traces[0].Uops)
	}
	var st simsvc.Stats
	if rec := getJSON(t, h, "/v1/stats", &st); rec.Code != http.StatusOK {
		t.Fatalf("/v1/stats: %d", rec.Code)
	}
	if st.TracesRecorded != 1 || st.TraceReplays != 3 {
		t.Errorf("trace stats: recorded=%d replays=%d, want 1/3", st.TracesRecorded, st.TraceReplays)
	}
}
