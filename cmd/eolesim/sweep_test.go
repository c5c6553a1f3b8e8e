package main

import (
	"bytes"
	"context"
	"encoding/xml"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"eole"
	"eole/internal/simsvc"
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

// -svg draws the sweep's IPC table: well-formed SVG naming every
// workload, and the same bytes on every run of the same sweep.
func TestSweepSVG(t *testing.T) {
	cfg, err := eole.NamedConfig("EOLE_4_64")
	if err != nil {
		t.Fatal(err)
	}
	cfgs, wls := []eole.Config{cfg}, []string{"gzip", "namd"}
	var runs [2][]byte
	for i := range runs {
		reports, err := localSweep(context.Background(), simsvc.Cross(cfgs, wls, 2_000, 5_000))
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "ipc.svg")
		if err := writeSweepSVG(path, cfgs, wls, reports, false); err != nil {
			t.Fatal(err)
		}
		if runs[i], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
	}
	var node struct{}
	if err := xml.Unmarshal(runs[0], &node); err != nil {
		t.Fatalf("not well-formed XML: %v\n%s", err, runs[0])
	}
	for _, wl := range wls {
		if !strings.Contains(string(runs[0]), wl) {
			t.Errorf("SVG has no %s label", wl)
		}
	}
	if !bytes.Equal(runs[0], runs[1]) {
		t.Error("two runs of the same sweep drew different bytes")
	}
}
