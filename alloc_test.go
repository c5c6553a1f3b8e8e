package eole_test

import (
	"runtime"
	"testing"

	"eole"
)

// TestSampledCellAllocBudget pins what one execute-driven sampled cell
// allocates while its workload's image is in use — the benchmark's
// sampled_long cell: EOLE_4_64 on long-dram, sweepBenchSpec's schedule.
// What it needs is the core's own tables (2.0 MB), the 4 KiB pages it
// stores to (2.8 MB: two passes of the stream phase) and the report.
// The budget catches the two ways this cell has cost 432 MB: squash
// recovery allocating per squash (it squashes ~42 times per
// kilo-µ-op: 400 MB), and a private 32 MB memory image per machine.
func TestSampledCellAllocBudget(t *testing.T) {
	w, err := eole.WorkloadByName("long-dram")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := eole.NamedConfig("EOLE_4_64")
	if err != nil {
		t.Fatal(err)
	}
	// One machine alive keeps the image alive, as a second client's
	// cell in flight does in a server; without it the cell also pays
	// for building the image (32 MB), which is the use-scoped
	// lifetime's price and not a regression.
	holder := w.NewMachine()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r, err := eole.Simulate(cfg, w, sweepBenchWarmup, sweepBenchMeasure, eole.WithSampling(sweepBenchSpec))
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(holder)
	if err != nil {
		t.Fatal(err)
	}
	if r.Cycles != 224266 || r.Committed != 160033 {
		t.Errorf("cell reports cycles %d, committed %d; want 224266, 160033", r.Cycles, r.Committed)
	}
	const budget = 8 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Errorf("sampled long-dram cell allocated %.1f MB, budget %d MB", float64(got)/(1<<20), budget>>20)
	} else {
		t.Logf("sampled long-dram cell allocated %.1f MB", float64(got)/(1<<20))
	}
}
