package simsvc

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"eole"
)

// TestRunningJobAbandonedWhenWaitersGone is the interruptible-
// simulation acceptance check at the service layer: canceling the
// submit context of the only job attached to a *running* simulation
// stops the simulation promptly (bounded wall clock), frees the
// worker, and counts in SimsAbandoned.
func TestRunningJobAbandonedWhenWaitersGone(t *testing.T) {
	s := newTestService(t, Options{Parallelism: 1})
	long := testReq(t, "Baseline_6_64", "namd")
	// Minutes of simulation if never canceled, and over the trace
	// ceiling, so the run is execute-driven from its first µ-op.
	long.Measure = 50_000_000

	ctx, cancel := context.WithCancel(context.Background())
	j, err := s.Submit(ctx, long)
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the worker has started the simulation.
	deadline := time.Now().Add(5 * time.Second)
	for j.Status() != StatusRunning {
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(2 * time.Millisecond)
	}
	start := time.Now()
	cancel()
	select {
	case <-j.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("abandoned job not resolved within 5s of cancel")
	}
	elapsed := time.Since(start)
	if _, jerr := j.Result(); !errors.Is(jerr, context.Canceled) {
		t.Fatalf("job error = %v, want context.Canceled", jerr)
	}
	if j.Status() != StatusCanceled {
		t.Errorf("status = %v, want canceled", j.Status())
	}
	// Generous bound: the job completes the moment it leaves; scheduling
	// noise must stay far under the full run time.
	if elapsed > 3*time.Second {
		t.Errorf("cancellation took %v", elapsed)
	}
	if st := s.Stats(); st.SimsAbandoned != 1 {
		t.Errorf("SimsAbandoned = %d, want 1", st.SimsAbandoned)
	}

	// The worker must be free again: a fresh job completes.
	j2, err := s.Submit(context.Background(), testReq(t, "Baseline_6_64", "gzip"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j2.Wait(context.Background()); err != nil {
		t.Fatalf("worker not released after abandonment: %v", err)
	}
}

// TestAnonymousConfigLabels: an anonymous config (no Name)
// must surface as its synthesized fingerprint label — not "" — in
// sweep error strings, and two distinct anonymous configs must not
// collide on an empty name anywhere (keys are fingerprint-based).
func TestAnonymousConfigLabels(t *testing.T) {
	s := newTestService(t, Options{Parallelism: 1})
	anon := eole.BaselineConfig()
	anon.Name, anon.IssueWidth = "", 4
	req := Request{Config: anon, Workload: "no-such-benchmark", Warmup: 100, Measure: 100}
	sweep, err := s.SubmitSweep(context.Background(), []Request{req})
	if err != nil {
		t.Fatal(err)
	}
	_, werr := sweep.Wait(context.Background())
	if werr == nil {
		t.Fatal("unknown workload must fail")
	}
	if !strings.Contains(werr.Error(), "custom-"+anon.Fingerprint()[:12]) {
		t.Errorf("sweep error %q does not carry the synthesized label", werr)
	}
	if strings.Contains(werr.Error(), " on no-such-benchmark: ") && strings.HasPrefix(werr.Error(), " on ") {
		t.Errorf("sweep error %q lost the config label", werr)
	}

	// Two distinct anonymous configs: distinct keys.
	other := anon
	other.IssueWidth = 5
	a := Request{Config: anon, Workload: "gzip", Warmup: 100, Measure: 100}
	b := Request{Config: other, Workload: "gzip", Warmup: 100, Measure: 100}
	if KeyOf(a) == KeyOf(b) {
		t.Error("distinct anonymous configs must not share a cache key")
	}
}

// TestFingerprintSharedCache: a nameless custom config field-identical
// to a named one shares its cache entry — the second submission is a
// cache hit, not a second simulation.
func TestFingerprintSharedCache(t *testing.T) {
	s := newTestService(t, Options{Parallelism: 1})
	ctx := context.Background()

	named := testReq(t, "EOLE_4_64", "gzip")
	j1, err := s.Submit(ctx, named)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := j1.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}

	anon := named
	anon.Config.Name = "" // identical machine, no label
	j2, err := s.Submit(ctx, anon)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := j2.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !j2.Cached() {
		t.Error("anonymous twin must hit the named config's cache entry")
	}
	if r2 != r1 {
		t.Error("cache hit must return the shared report")
	}
	if st := s.Stats(); st.SimsRun != 1 {
		t.Errorf("SimsRun = %d, want 1", st.SimsRun)
	}
}
