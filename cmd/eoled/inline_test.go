package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"eole"
	"eole/internal/simsvc"
)

// TestInlineConfigEquivalence is the ISSUE acceptance check: a custom
// config posted inline to /v1/simulate that is field-identical to
// EOLE_4_64 returns a byte-identical Report, shares the named
// config's fingerprint-keyed cache entry, and a second identical
// request is a cache hit.
func TestInlineConfigEquivalence(t *testing.T) {
	svc, err := simsvc.New(simsvc.Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	h := newServer(svc, serverOptions{defaultWarmup: 2_000, defaultMeasure: 5_000, maxUops: 1_000_000})

	named := postJSON(t, h, "/v1/simulate", wireRequest{Config: namedRef("EOLE_4_64"), Workload: "gzip"})
	if named.Code != http.StatusOK {
		t.Fatalf("named: %d: %s", named.Code, named.Body.String())
	}

	cfg, err := eole.NamedConfig("EOLE_4_64")
	if err != nil {
		t.Fatal(err)
	}
	inline := postJSON(t, h, "/v1/simulate", wireRequest{Config: inlineRef(cfg), Workload: "gzip"})
	if inline.Code != http.StatusOK {
		t.Fatalf("inline: %d: %s", inline.Code, inline.Body.String())
	}
	if !bytes.Equal(named.Body.Bytes(), inline.Body.Bytes()) {
		t.Errorf("inline field-identical config must return a byte-identical report:\n named  %s\n inline %s",
			named.Body.String(), inline.Body.String())
	}
	st := svc.Stats()
	if st.SimsRun != 1 {
		t.Errorf("SimsRun = %d, want 1 (inline request must share the cache entry)", st.SimsRun)
	}
	if st.CacheHits != 1 {
		t.Errorf("CacheHits = %d, want 1 (second identical request is a hit)", st.CacheHits)
	}

	// An anonymous inline twin (Name cleared) also hits the same
	// fingerprint-keyed entry; only the label differs.
	anon := cfg
	anon.Name = ""
	rec := postJSON(t, h, "/v1/simulate", wireRequest{Config: inlineRef(anon), Workload: "gzip"})
	if rec.Code != http.StatusOK {
		t.Fatalf("anonymous inline: %d: %s", rec.Code, rec.Body.String())
	}
	var r eole.Report
	if err := json.Unmarshal(rec.Body.Bytes(), &r); err != nil {
		t.Fatal(err)
	}
	if want := "custom-" + anon.Fingerprint()[:12]; r.Config != want {
		t.Errorf("anonymous report labeled %q, want %q", r.Config, want)
	}
	if st := svc.Stats(); st.SimsRun != 1 {
		t.Errorf("SimsRun = %d after anonymous twin, want still 1", st.SimsRun)
	}
}

func TestInlineConfigValidation(t *testing.T) {
	h := newTestHandler(t)
	cfg, err := eole.NamedConfig("EOLE_4_64")
	if err != nil {
		t.Fatal(err)
	}
	cfg.IQSize = cfg.ROBSize + 1 // structurally impossible
	rec := postJSON(t, h, "/v1/simulate", wireRequest{Config: inlineRef(cfg), Workload: "gzip"})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("invalid inline config: status %d, want 400", rec.Code)
	}
	var e errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || !strings.Contains(e.Error, "IQ") {
		t.Errorf("error %q must name the offending field", e.Error)
	}

	// Hostile configs that would panic or wedge the core (negative FU
	// counts size a make(); giant ROBs size the in-flight window) must
	// be a 400, never a worker crash.
	for _, mutate := range []func(c *eole.Config){
		func(c *eole.Config) { c.NumMulDiv = -1 },
		func(c *eole.Config) { c.ROBSize = 1 << 30; c.IQSize = 64 },
		func(c *eole.Config) { c.PRF.IntRegs = 0 },
	} {
		hostile, err := eole.NamedConfig("EOLE_4_64")
		if err != nil {
			t.Fatal(err)
		}
		mutate(&hostile)
		rec := postJSON(t, h, "/v1/simulate", wireRequest{Config: inlineRef(hostile), Workload: "gzip"})
		if rec.Code != http.StatusBadRequest {
			t.Errorf("hostile config: status %d, want 400 (%s)", rec.Code, rec.Body.String())
		}
	}
}

// An inline config naming a value predictor that does not exist is a
// 400 naming the Predictor option, answered before it takes a worker:
// no simulation runs (it used to panic in core.New, a recovered 500 a
// coordinator retried on every worker).
func TestInlineConfigUnknownPredictor(t *testing.T) {
	svc, err := simsvc.New(simsvc.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	h := newServer(svc, serverOptions{defaultWarmup: 2_000, defaultMeasure: 5_000, maxUops: 1_000_000})
	cfg, err := eole.NamedConfig("EOLE_4_64")
	if err != nil {
		t.Fatal(err)
	}
	cfg.PredictorName = "nope"
	rec := postJSON(t, h, "/v1/simulate", wireRequest{Config: inlineRef(cfg), Workload: "gzip"})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("unknown predictor: status %d, want 400 (%s)", rec.Code, rec.Body.String())
	}
	var e errorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || !strings.Contains(e.Error, "Predictor(") {
		t.Errorf("error %q must name the Predictor option", e.Error)
	}
	if st := svc.Stats(); st.SimsRun != 0 {
		t.Errorf("sims_run = %d after a rejected config, want 0", st.SimsRun)
	}
}

// TestInlineConfigStrictDecoding: the documented workflow is "dump,
// hand-edit, post" — a misspelled field must be a 400, not a silently
// different machine; and an inline config that leaves LEWidth to its
// commit-width default must share the named config's cache entry
// (normalization happens before fingerprinting).
func TestInlineConfigStrictDecoding(t *testing.T) {
	svc, err := simsvc.New(simsvc.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	h := newServer(svc, serverOptions{defaultWarmup: 1_000, defaultMeasure: 3_000, maxUops: 1_000_000})

	cfg, err := eole.NamedConfig("EOLE_4_64")
	if err != nil {
		t.Fatal(err)
	}
	wire, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Typo'd field: "LEReturn" instead of "LEReturns".
	typo := bytes.Replace(wire, []byte(`"LEReturns"`), []byte(`"LEReturn"`), 1)
	body := []byte(`{"config": ` + string(typo) + `, "workload": "gzip"}`)
	req := httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("typo'd config field: status %d, want 400: %s", rec.Code, rec.Body.String())
	}
	// Unknown top-level request field likewise.
	req = httptest.NewRequest(http.MethodPost, "/v1/simulate",
		bytes.NewReader([]byte(`{"config": "EOLE_4_64", "workload": "gzip", "wormup": 5}`)))
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("typo'd request field: status %d, want 400", rec.Code)
	}

	// LEWidth left to its default: same machine, same cache entry.
	if rec := postJSON(t, h, "/v1/simulate", wireRequest{Config: namedRef("EOLE_4_64"), Workload: "gzip"}); rec.Code != http.StatusOK {
		t.Fatalf("named: %d", rec.Code)
	}
	defaulted := cfg
	defaulted.LEWidth = 0
	if rec := postJSON(t, h, "/v1/simulate", wireRequest{Config: inlineRef(defaulted), Workload: "gzip"}); rec.Code != http.StatusOK {
		t.Fatalf("defaulted inline: %d: %s", rec.Code, rec.Body.String())
	}
	if st := svc.Stats(); st.SimsRun != 1 || st.CacheHits != 1 {
		t.Errorf("SimsRun=%d CacheHits=%d, want 1/1 (normalized config must share the cache entry)", st.SimsRun, st.CacheHits)
	}
}

// TestSweepGridOverflowRejected: an axis product that overflows int
// must not slip under the cell budget.
func TestSweepGridOverflowRejected(t *testing.T) {
	h := newTestHandler(t)
	axis := `{"option": "IQ", "values": [` + strings.Repeat("1,", 199) + `1]}`
	axes := strings.Repeat(axis+",", 8) + axis // 200^9 > 2^63
	body := []byte(`{"grid": {"axes": [` + axes + `]}, "workloads": ["gzip"]}`)
	req := httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("overflowing grid: status %d, want 400: %s", rec.Code, rec.Body.String())
	}
}

// TestSweepWithGridAxes posts a Figure 10 style sweep: a base config
// and a PRFBanks axis, expanded server-side.
func TestSweepWithGridAxes(t *testing.T) {
	h := newTestHandler(t)
	body := []byte(`{
		"grid": {"base_name": "EOLE_4_64", "axes": [{"option": "PRFBanks", "values": [2, 4]}]},
		"workloads": ["gzip"]
	}`)
	req := httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("grid sweep: %d: %s", rec.Code, rec.Body.String())
	}
	var resp sweepResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("%d results, want 2", len(resp.Results))
	}
	wantNames := []string{"EOLE_4_64_PRFBanks2", "EOLE_4_64_PRFBanks4"}
	for i, res := range resp.Results {
		if res.Error != "" {
			t.Errorf("cell %d: %s", i, res.Error)
			continue
		}
		if res.Config != wantNames[i] {
			t.Errorf("cell %d labeled %q, want %q", i, res.Config, wantNames[i])
		}
		if res.Report == nil || res.Report.IPC <= 0 {
			t.Errorf("cell %d: invalid report", i)
		}
	}

	// Bad axis: rejected up front with a useful message.
	bad := []byte(`{"grid": {"axes": [{"option": "WarpDrive", "values": [1]}]}, "workloads": ["gzip"]}`)
	req = httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader(bad))
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad axis: status %d, want 400", rec.Code)
	}
}

// TestClientDisconnectAbandonsRunningSim: canceling the HTTP request
// context of an in-flight /v1/simulate stops the running simulation
// (not just its queue entry), bounded in wall clock, and frees the
// worker for the next request. The 50M-µ-op run is over the trace
// ceiling, so it is execute-driven from its first µ-op.
func TestClientDisconnectAbandonsRunningSim(t *testing.T) {
	svc, err := simsvc.New(simsvc.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	h := newServer(svc, serverOptions{defaultWarmup: 0, defaultMeasure: 0, maxUops: 0})

	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)

	ctx, cancel := context.WithCancel(context.Background())
	body := []byte(`{"config": "Baseline_6_64", "workload": "namd", "warmup": 1, "measure": 50000000}`)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/simulate", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := srv.Client().Do(req)
		if resp != nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	// Wait for the simulation to start, then drop the client.
	deadline := time.Now().Add(5 * time.Second)
	for svc.Stats().CacheMisses == 0 {
		if time.Now().After(deadline) {
			t.Fatal("simulation never started")
		}
		time.Sleep(2 * time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // let the worker pick it up
	start := time.Now()
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("canceled request must error client-side")
	}

	// The worker must become free long before the 50M-µ-op run could
	// finish: a short follow-up request completes promptly.
	follow := []byte(`{"config": "Baseline_6_64", "workload": "gzip", "warmup": 1000, "measure": 2000}`)
	resp, err := srv.Client().Post(srv.URL+"/v1/simulate", "application/json", bytes.NewReader(follow))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up status %d", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("worker freed after %v", elapsed)
	}
	// The abandonment is observable in the service counters.
	deadline = time.Now().Add(5 * time.Second)
	for svc.Stats().SimsAbandoned == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("SimsAbandoned never moved: %+v", svc.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
