package main

import (
	"context"
	"errors"
	"testing"
	"time"
)

// Ctrl-C on a local sweep cancels its context: the sweep must give up
// its cells and return at once, not run a 30M-µ-op cell to the end.
func TestLocalSweepCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(200*time.Millisecond, cancel)
	start := time.Now()
	err := runSweep(ctx, sweepArgs{config: "EOLE_4_64", workloads: "mcf", warmup: 10_000, measure: 30_000_000})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled sweep returned %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("canceled sweep took %s to return, want under 5s", d)
	}
}
