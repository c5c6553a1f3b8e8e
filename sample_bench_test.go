package eole_test

import (
	"sync"
	"testing"
	"time"

	"eole"
)

// Sampled-simulation benchmarks: the wall-clock case for the sampler.
//
// BenchmarkSampledSweep runs a 3-config sweep over long-dram — a
// phased, DRAM-bound member of the long-* family — sampled, and
// reports its speedup over the equivalent full-run sweep (same
// configs, same stream extent, every µ-op simulated in detail). The
// full baseline is timed once and amortized across iterations; the
// "speedup_vs_full" metric is the acceptance number (≥5x on this
// schedule: ~90% of the stream is fast-forwarded, and fast-forward
// µ-ops cost 10-40x less than detailed ones on a memory-bound
// kernel).

var sweepBenchConfigs = []string{"Baseline_VP_6_64", "EOLE_4_64", "EOLE_6_64"}

// sweepBenchSpec fast-forwards ~90% of each window: 250K skipped,
// 30K warmed, 20K measured in detail (plus the detail warm-up).
var sweepBenchSpec = eole.SamplingSpec{Windows: 8, Skip: 250_000, Warm: 30_000}

const (
	sweepBenchWarmup  = 50_000
	sweepBenchMeasure = 160_000
)

func sweepBenchExtent(b *testing.B) uint64 {
	plan, err := sweepBenchSpec.Plan(sweepBenchMeasure)
	if err != nil {
		b.Fatal(err)
	}
	return plan.Total()
}

func runFullSweep(b *testing.B, extent uint64) {
	b.Helper()
	w, err := eole.WorkloadByName("long-dram")
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range sweepBenchConfigs {
		cfg, err := eole.NamedConfig(name)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eole.Simulate(cfg, w, sweepBenchWarmup, extent); err != nil {
			b.Fatal(err)
		}
	}
}

// runSampledSweep returns the sweep's VP squashes and committed µ-ops
// (measurement windows only), summed over its cells.
func runSampledSweep(b *testing.B) (squashes, committed uint64) {
	b.Helper()
	w, err := eole.WorkloadByName("long-dram")
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range sweepBenchConfigs {
		cfg, err := eole.NamedConfig(name)
		if err != nil {
			b.Fatal(err)
		}
		r, err := eole.Simulate(cfg, w, sweepBenchWarmup, sweepBenchMeasure, eole.WithSampling(sweepBenchSpec))
		if err != nil {
			b.Fatal(err)
		}
		squashes += r.VPSquashes
		committed += r.Committed
	}
	return squashes, committed
}

var fullSweepBaseline struct {
	once sync.Once
	dur  time.Duration
}

func BenchmarkSampledSweep(b *testing.B) {
	extent := sweepBenchExtent(b)
	fullSweepBaseline.once.Do(func() {
		start := time.Now()
		runFullSweep(b, extent)
		fullSweepBaseline.dur = time.Since(start)
	})
	b.ReportAllocs()
	b.ResetTimer()
	var squashes, committed uint64
	for i := 0; i < b.N; i++ {
		squashes, committed = runSampledSweep(b)
	}
	sampled := b.Elapsed() / time.Duration(b.N)
	b.ReportMetric(fullSweepBaseline.dur.Seconds()/sampled.Seconds(), "speedup_vs_full")
	// What the cells spend on squash recovery scales with this: every
	// squash refetches up to a window's worth of µ-ops.
	b.ReportMetric(1000*float64(squashes)/float64(committed), "squashes/kµop")
	b.ReportMetric(float64(extent+sweepBenchWarmup)*float64(len(sweepBenchConfigs))/sampled.Seconds()/1e6, "Mµops_covered/s")
}

// BenchmarkFullSweepLong is the explicit baseline twin of
// BenchmarkSampledSweep, for measuring the two sides independently.
func BenchmarkFullSweepLong(b *testing.B) {
	extent := sweepBenchExtent(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runFullSweep(b, extent)
	}
	b.ReportMetric(float64(extent+sweepBenchWarmup)*float64(len(sweepBenchConfigs))/(b.Elapsed().Seconds()/float64(b.N))/1e6, "Mµops_covered/s")
}
