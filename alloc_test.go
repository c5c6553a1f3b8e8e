package eole_test

import (
	"fmt"
	"runtime"
	"testing"

	"eole"
	"eole/internal/golden"
)

// TestSampledCellAllocBudget pins what one execute-driven sampled cell
// allocates while its workload's image is in use — the benchmark's
// sampled_long cell: EOLE_4_64 on long-dram, sweepBenchSpec's schedule
// — and the cycles and committed µ-ops it reports, in
// testdata/sampled_cell.json. What it needs is the core's own tables,
// the 5 835 image pages the cell touches (2.9 MB: a lazy image builds
// no others), a private copy of each of them (the stream phase stores
// to every page it reads) and the report: 7.1 MB. The budget catches the
// two ways this cell has cost 432 MB: squash recovery allocating per
// squash (it squashes ~42 times per kilo-µ-op: 400 MB), and a private
// memory image per machine.
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
	// cell in flight does in a server. The image is fresh, so the cell
	// builds the pages it touches, and the budget counts them.
	holder := w.NewMachine()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r, err := eole.Simulate(cfg, w, sweepBenchWarmup, sweepBenchMeasure, eole.WithSampling(sweepBenchSpec))
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(holder)
	if err != nil {
		t.Fatal(err)
	}
	pin := fmt.Sprintf("{\n  \"cycles\": %d,\n  \"committed\": %d\n}\n", r.Cycles, r.Committed)
	golden.Check(t, "testdata/sampled_cell.json", []byte(pin))
	const budget = 8 << 20
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Errorf("sampled long-dram cell allocated %.1f MB, budget %d MB", float64(got)/(1<<20), budget>>20)
	} else {
		t.Logf("sampled long-dram cell allocated %.1f MB", float64(got)/(1<<20))
	}
}
