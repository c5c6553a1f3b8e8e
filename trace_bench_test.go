package eole_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	"eole"
	"eole/internal/core"
	"eole/internal/prog"
	"eole/internal/trace"
)

// sweepConfigs is the config set every figure-style sweep re-runs per
// workload; the benchmarks below compare interpreting the workload
// once per config (execute-driven) against interpreting it once and
// replaying the recorded stream (trace-driven).
var sweepConfigs = []string{
	"Baseline_6_64", "Baseline_VP_6_64", "EOLE_6_64",
	"EOLE_4_64", "OLE_4_64", "EOE_4_64",
}

const (
	sweepWorkload = "namd"
	sweepWarmup   = 10_000
	sweepMeasure  = 40_000
)

func sweepOnce(b *testing.B, opts ...eole.SimOption) {
	b.Helper()
	w, err := eole.WorkloadByName(sweepWorkload)
	if err != nil {
		b.Fatal(err)
	}
	for _, name := range sweepConfigs {
		cfg, err := eole.NamedConfig(name)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eole.Simulate(cfg, w, sweepWarmup, sweepMeasure, opts...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepExecuteDriven runs a 6-config sweep of one workload
// with the functional interpreter re-executed for every config.
func BenchmarkSweepExecuteDriven(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sweepOnce(b)
	}
	b.ReportMetric(float64(len(sweepConfigs)), "configs")
}

// BenchmarkSweepTraceDriven is the steady-state sweep the trace store
// serves: the workload was recorded once (outside the measured loop)
// and every config replays the shared stream.
func BenchmarkSweepTraceDriven(b *testing.B) {
	w, err := eole.WorkloadByName(sweepWorkload)
	if err != nil {
		b.Fatal(err)
	}
	tr := eole.RecordTrace(w, sweepWarmup+sweepMeasure+eole.TraceSlack)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweepOnce(b, eole.WithReplay(tr))
	}
	b.ReportMetric(float64(len(sweepConfigs)), "configs")
}

// BenchmarkSweepTraceDrivenCold includes the one-time recording in
// every iteration — the first sweep after a cache-cold start.
func BenchmarkSweepTraceDrivenCold(b *testing.B) {
	w, err := eole.WorkloadByName(sweepWorkload)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		tr := eole.RecordTrace(w, sweepWarmup+sweepMeasure+eole.TraceSlack)
		sweepOnce(b, eole.WithReplay(tr))
	}
	b.ReportMetric(float64(len(sweepConfigs)), "configs")
}

// BenchmarkColdCell is the benchmark's cold_sweep op one cell at a
// time: the 16 never-seen cells (4 configs × an ILP-bound, a
// DRAM-bound, an FP and a mixed workload; warmup 10 000, measure
// 40 000), each replayed from its workload's one 65 536-µ-op trace as
// a simsvc worker runs it. The trace outlives the iterations, as a
// server's does, so the first iteration of the first config of each
// predictor key builds the trace's prediction track for what it reads
// and every later one reads its verdicts from it: ns/op is the cell on
// the track path, what a core change moves (BenchmarkPredictionTrack
// has the build). The sim-cycles metric and B/op must not move with it.
func BenchmarkColdCell(b *testing.B) {
	const traceOps = 1 << 16 // warmup+measure+TraceSlack, rounded as simsvc rounds it
	for _, wl := range []string{"gzip", "mcf", "namd", "hmmer"} {
		w, err := eole.WorkloadByName(wl)
		if err != nil {
			b.Fatal(err)
		}
		tr := eole.RecordTrace(w, traceOps)
		for _, name := range []string{"Baseline_6_64", "Baseline_VP_6_64", "EOLE_6_64", "EOLE_4_64"} {
			cfg, err := eole.NamedConfig(name)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(wl+"/"+name, func(b *testing.B) {
				b.ReportAllocs()
				var cycles uint64
				for i := 0; i < b.N; i++ {
					r, err := eole.Simulate(cfg, w, sweepWarmup, sweepMeasure, eole.WithReplay(tr))
					if err != nil {
						b.Fatal(err)
					}
					cycles = r.Cycles
				}
				b.ReportMetric(float64(cycles), "sim-cycles")
			})
		}
	}
}

// BenchmarkPredictionTrack is the one-time cost BenchmarkColdCell's
// cells no longer pay per cell: building a prediction track over the
// whole of each cold cell's 65 536-µ-op trace, under both predictor keys
// the cold cells use (Baseline_6_64 predicts no values; EOLE_4_64 runs
// VTAGE-2DStride): ns/op per trace, and per µ-op. Each iteration builds
// on a fresh copy of the trace, parsed and scanned outside the timer.
func BenchmarkPredictionTrack(b *testing.B) {
	const traceOps = 1 << 16
	for _, wl := range []string{"gzip", "mcf", "namd", "hmmer"} {
		w, err := eole.WorkloadByName(wl)
		if err != nil {
			b.Fatal(err)
		}
		var enc bytes.Buffer
		if err := eole.RecordTrace(w, traceOps).Write(&enc); err != nil {
			b.Fatal(err)
		}
		for _, name := range []string{"Baseline_6_64", "EOLE_4_64"} {
			cfg, err := eole.NamedConfig(name)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(wl+"/"+name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					tr, err := trace.Parse(bytes.Clone(enc.Bytes()))
					if err != nil {
						b.Fatal(err)
					}
					if _, err := tr.SourceFor(w); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					core.TrackFor(cfg, tr, w)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/traceOps, "ns/uop")
			})
		}
	}
}

// BenchmarkIQScaling is the instrument for "the issue queue wakes, it
// does not poll": mcf — the IQ full of the DRAM-bound window head's
// dependents — under a 4-issue EOLE machine at the IQ sizes Figure 8
// sweeps and beyond, replayed from one trace as BenchmarkColdCell does.
// The simulated machine barely notices the size (sim-cycles 568 062 at
// IQ 16, 568 061 from 32 up, and must not move); ns/op should not
// notice it either. When select polled every entry it rose 1.8-fold
// from IQ 16 to IQ 192.
func BenchmarkIQScaling(b *testing.B) {
	w, err := eole.WorkloadByName("mcf")
	if err != nil {
		b.Fatal(err)
	}
	tr := eole.RecordTrace(w, 1<<16)
	for _, iq := range []int{16, 32, 64, 128, 192} {
		cfg := eole.EOLEConfig(4, iq)
		b.Run(fmt.Sprintf("iq=%d", iq), func(b *testing.B) {
			var cycles uint64
			for i := 0; i < b.N; i++ {
				r, err := eole.Simulate(cfg, w, sweepWarmup, sweepMeasure, eole.WithReplay(tr))
				if err != nil {
					b.Fatal(err)
				}
				cycles = r.Cycles
			}
			b.ReportMetric(float64(cycles), "sim-cycles")
		})
	}
}

// BenchmarkSampledCell is the benchmark's sampled_long op as one
// Simulate: EOLE_4_64 on long-dram under sweepBenchSpec, squashing ~42
// times per kilo-µ-op in its measurement windows, execute-driven: the
// interpreter runs all 2.7M µ-ops of the schedule, the 2M skipped ones
// included. A machine held across the loop keeps the workload's image
// alive, as concurrent cells do in a server, so ns/op is the cell and
// not the build of the 5 835 image pages (2.9 MB) it touches. ns/op is
// what a change to the core, the value predictors or the interpreter
// moves; sim-cycles must not move with it.
func BenchmarkSampledCell(b *testing.B) { benchSampledCell(b, false) }

// BenchmarkSampledCellReplay is the same cell the way a server runs
// it: over one 2.88M-µ-op recording made outside the loop, where each
// skip is a seek and only the warmed and measured µ-ops are decoded.
// sim-cycles must equal BenchmarkSampledCell's.
func BenchmarkSampledCellReplay(b *testing.B) { benchSampledCell(b, true) }

func benchSampledCell(b *testing.B, replay bool) {
	w, err := eole.WorkloadByName("long-dram")
	if err != nil {
		b.Fatal(err)
	}
	cfg, err := eole.NamedConfig("EOLE_4_64")
	if err != nil {
		b.Fatal(err)
	}
	opts := []eole.SimOption{eole.WithSampling(sweepBenchSpec)}
	if replay {
		need := eole.ReplayNeed(cfg, sweepBenchWarmup, sweepBenchMeasure, &sweepBenchSpec)
		opts = append(opts, eole.WithReplay(eole.RecordTrace(w, need)))
	}
	holder := w.NewMachine()
	b.ReportAllocs()
	b.ResetTimer()
	var cycles uint64
	for i := 0; i < b.N; i++ {
		r, err := eole.Simulate(cfg, w, sweepBenchWarmup, sweepBenchMeasure, opts...)
		if err != nil {
			b.Fatal(err)
		}
		cycles = r.Cycles
	}
	runtime.KeepAlive(holder)
	b.ReportMetric(float64(cycles), "sim-cycles")
}

// BenchmarkRecordTrace isolates the one-time recording cost.
func BenchmarkRecordTrace(b *testing.B) {
	w, err := eole.WorkloadByName(sweepWorkload)
	if err != nil {
		b.Fatal(err)
	}
	n := uint64(sweepWarmup + sweepMeasure + eole.TraceSlack)
	for i := 0; i < b.N; i++ {
		tr := eole.RecordTrace(w, n)
		if tr.Count != n {
			b.Fatal("short recording")
		}
	}
	b.SetBytes(int64(n))
}

// BenchmarkSourceExecute and BenchmarkSourceReplay compare the raw
// per-µ-op cost of the two stream sources, outside the timing model.
func BenchmarkSourceExecute(b *testing.B) {
	w, err := eole.WorkloadByName(sweepWorkload)
	if err != nil {
		b.Fatal(err)
	}
	const n = 100_000
	var u prog.MicroOp
	for i := 0; i < b.N; i++ {
		src := prog.MachineSource{M: w.NewMachine()}
		for j := 0; j < n; j++ {
			if !src.Next(&u) {
				b.Fatal("machine exhausted")
			}
		}
	}
	b.SetBytes(n)
}

func BenchmarkSourceReplay(b *testing.B) {
	w, err := eole.WorkloadByName(sweepWorkload)
	if err != nil {
		b.Fatal(err)
	}
	const n = 100_000
	tr := eole.RecordTrace(w, n)
	b.ResetTimer()
	var u prog.MicroOp
	for i := 0; i < b.N; i++ {
		src, err := tr.NewSource()
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < n; j++ {
			if !src.Next(&u) {
				b.Fatal("replay exhausted")
			}
		}
	}
	b.SetBytes(n)
}
