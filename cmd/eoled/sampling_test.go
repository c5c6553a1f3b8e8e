package main

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"eole"
	"eole/internal/simsvc"
)

// sampling spec used across the handler tests: small enough for fast
// httptests, structurally identical to production specs.
func testSpec() *eole.SamplingSpec {
	return &eole.SamplingSpec{Windows: 3, Warm: 2_000, DetailWarmup: 200}
}

// TestSimulateSampled: a sampling object on /v1/simulate produces a
// report carrying the confidence interval fields.
func TestSimulateSampled(t *testing.T) {
	h := newTestHandler(t)
	rec := postJSON(t, h, "/v1/simulate", wireRequest{
		Config: namedRef("EOLE_4_64"), Workload: "gzip", Sampling: testSpec(),
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), `"ipc_ci"`) {
		t.Error("sampled response body carries no ipc_ci field")
	}
	var r eole.Report
	if err := json.Unmarshal(rec.Body.Bytes(), &r); err != nil {
		t.Fatal(err)
	}
	if !r.Sampled || r.SampleWindows != 3 {
		t.Errorf("report not marked sampled: sampled=%v windows=%d", r.Sampled, r.SampleWindows)
	}
	if r.IPC <= 0 || r.IPCCI < 0 {
		t.Errorf("degenerate sampled estimate: IPC %v ± %v", r.IPC, r.IPCCI)
	}
}

// TestSampledAndFullNeverShareCache: the same (config, workload,
// lengths) asked full and sampled must run two distinct simulations
// with distinct results — the sampling spec is part of the cache key.
func TestSampledAndFullNeverShareCache(t *testing.T) {
	svc := newTestService(t, simsvc.Options{Parallelism: 2})
	h := newServer(svc, serverOptions{defaultWarmup: 2_000, defaultMeasure: 5_000, maxUops: 1_000_000})

	full := postJSON(t, h, "/v1/simulate", wireRequest{Config: namedRef("EOLE_4_64"), Workload: "gzip"})
	sampled := postJSON(t, h, "/v1/simulate", wireRequest{
		Config: namedRef("EOLE_4_64"), Workload: "gzip", Sampling: testSpec(),
	})
	if full.Code != http.StatusOK || sampled.Code != http.StatusOK {
		t.Fatalf("status full %d sampled %d", full.Code, sampled.Code)
	}
	var fr, sr eole.Report
	if err := json.Unmarshal(full.Body.Bytes(), &fr); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(sampled.Body.Bytes(), &sr); err != nil {
		t.Fatal(err)
	}
	if fr.Sampled || !sr.Sampled {
		t.Errorf("cache crossed modes: full.Sampled=%v sampled.Sampled=%v", fr.Sampled, sr.Sampled)
	}
	st := svc.Stats()
	if st.SimsRun != 2 || st.SimsSampled != 1 {
		t.Errorf("stats: sims_run=%d sims_sampled=%d, want 2 and 1", st.SimsRun, st.SimsSampled)
	}
	if st.CacheHits != 0 {
		t.Errorf("a sampled request hit the full-run cache (%d hits)", st.CacheHits)
	}

	// Re-asking each mode now hits its own entry.
	postJSON(t, h, "/v1/simulate", wireRequest{Config: namedRef("EOLE_4_64"), Workload: "gzip"})
	postJSON(t, h, "/v1/simulate", wireRequest{Config: namedRef("EOLE_4_64"), Workload: "gzip", Sampling: testSpec()})
	st = svc.Stats()
	if st.SimsRun != 2 || st.CacheHits != 2 {
		t.Errorf("repeat stats: sims_run=%d cache_hits=%d, want 2 and 2", st.SimsRun, st.CacheHits)
	}
}

// TestSweepSampled: a sampling object on /v1/sweep applies to every
// cell and every result carries the interval.
func TestSweepSampled(t *testing.T) {
	h := newTestHandler(t)
	rec := postJSON(t, h, "/v1/sweep", wireRequest{
		Configs:   []configRef{namedRef("Baseline_6_64"), namedRef("EOLE_4_64")},
		Workloads: []string{"gzip"},
		Sampling:  testSpec(),
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp sweepResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("%d results, want 2", len(resp.Results))
	}
	for _, res := range resp.Results {
		if res.Error != "" {
			t.Errorf("%s on %s: %s", res.Config, res.Workload, res.Error)
			continue
		}
		if !res.Report.Sampled || res.Report.SampleWindows != 3 {
			t.Errorf("%s: cell not sampled (%+v)", res.Config, res.Report.Sampled)
		}
	}
}

// TestSamplingValidation: structurally invalid specs and schedules
// beyond the stream budget are 400s, not worker failures.
func TestSamplingValidation(t *testing.T) {
	h := newTestHandler(t) // maxUops 1M
	for name, spec := range map[string]*eole.SamplingSpec{
		"one window":  {Windows: 1, Warm: 100},
		"huge stream": {Windows: 4096, Warm: 1 << 33},
		// An explicit per-window Measure must not smuggle detailed
		// work past the maxUops ceiling (1M on the test handler).
		"detailed over ceiling": {Windows: 15, Measure: 1_000_000},
	} {
		rec := postJSON(t, h, "/v1/simulate", wireRequest{
			Config: namedRef("EOLE_4_64"), Workload: "gzip", Sampling: spec,
		})
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", name, rec.Code, rec.Body.String())
		}
	}
	// The sweep path validates too.
	rec := postJSON(t, h, "/v1/sweep", wireRequest{
		Workloads: []string{"gzip"},
		Sampling:  &eole.SamplingSpec{Windows: 1},
	})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("sweep with invalid spec: status %d", rec.Code)
	}
}

// TestSampledLongWorkload: the long-* family is reachable over the
// wire and sampled runs against it succeed.
func TestSampledLongWorkload(t *testing.T) {
	h := newTestHandler(t)
	rec := postJSON(t, h, "/v1/simulate", wireRequest{
		Config: namedRef("EOLE_4_64"), Workload: "long-l1", Sampling: testSpec(),
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var r eole.Report
	if err := json.Unmarshal(rec.Body.Bytes(), &r); err != nil {
		t.Fatal(err)
	}
	if r.Benchmark != "long-l1" || !r.Sampled {
		t.Errorf("report: %s sampled=%v", r.Benchmark, r.Sampled)
	}
}
