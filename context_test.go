package eole_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"eole"
)

// TestSimulateContextCancelBoundsWallClock: canceling the context of a
// long run must stop the cycle loop at the next checkpoint — verified
// by bounding the wall clock after cancel far under the run's natural
// duration (tens of millions of µ-ops ≈ tens of seconds).
func TestSimulateContextCancelBoundsWallClock(t *testing.T) {
	cfg, err := eole.NamedConfig("Baseline_6_64")
	if err != nil {
		t.Fatal(err)
	}
	w, err := eole.WorkloadByName("namd")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	r, err := eole.SimulateContext(ctx, cfg, w, 0, 50_000_000)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	if r != nil {
		t.Error("canceled run must not return a report")
	}
	// The deadline fires at 50ms; the checkpoint granularity is ~1K
	// cycles (microseconds), so a generous bound still proves the loop
	// did not run the remaining tens of seconds.
	if elapsed > 2*time.Second {
		t.Errorf("cancellation took %v", elapsed)
	}
}

// TestMeasureContextResumable: a canceled run leaves the simulator
// consistent; the same simulator can keep simulating afterwards.
func TestMeasureContextResumable(t *testing.T) {
	cfg, err := eole.NamedConfig("Baseline_6_64")
	if err != nil {
		t.Fatal(err)
	}
	w, err := eole.WorkloadByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	sim, err := eole.NewSimulator(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sim.RunContext(canceled, 1_000_000); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext = %v, want canceled", err)
	}
	r, err := sim.MeasureContext(context.Background(), 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if r.Committed < 20_000 || r.IPC <= 0 {
		t.Errorf("post-cancel measure broken: %+v committed=%d", r.IPC, r.Committed)
	}
}

// TestGridMatchesNamedThroughPublicAPI: a grid of single-value axes
// over the Table 1 baseline, declared through the public eole.Grid,
// reproduces EOLE_4_64 field-for-field (modulo the label) and
// fingerprint-for-fingerprint.
func TestGridMatchesNamedThroughPublicAPI(t *testing.T) {
	one := func(option string, v any) eole.Axis { return eole.Axis{Option: option, Values: []any{v}} }
	cfgs, err := eole.Grid{Axes: []eole.Axis{
		one("IssueWidth", 4), one("IQ", 64),
		one("ValuePrediction", true),
		one("EarlyExecution", 1),
		one("LateExecution", true),
		one("LEBranches", true),
	}}.Configs()
	if err != nil || len(cfgs) != 1 {
		t.Fatalf("grid expanded to %d configs: %v", len(cfgs), err)
	}
	built := cfgs[0]
	named, err := eole.NamedConfig("EOLE_4_64")
	if err != nil {
		t.Fatal(err)
	}
	if built.Fingerprint() != named.Fingerprint() {
		t.Error("grid cell does not fingerprint-match EOLE_4_64")
	}
	built.Name = named.Name
	if built != named {
		t.Errorf("grid cell differs from EOLE_4_64:\n got  %+v\n want %+v", built, named)
	}
}
