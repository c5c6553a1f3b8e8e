// Benchmarks regenerating every table and figure of the paper (each
// is named for its artefact) plus ablation benches for the design
// choices ARCHITECTURE.md's "Pipeline walkthrough" describes: the value
// predictor, its FPC vector, the EE depth and LE/VT branch resolution.
// Reported metrics are the figure's headline numbers (geomeans,
// fractions); wall-clock time is the cost of regenerating the artefact.
//
// Run all:  go test -bench=. -benchmem
// One:      go test -bench=BenchmarkFigure7 -benchtime=1x
package eole_test

import (
	"testing"

	"eole"
	"eole/internal/bpred"
	"eole/internal/experiments"
	"eole/internal/prog"
	"eole/internal/stats"
	"eole/internal/vpred"
)

// benchOpts keeps artefact regeneration fast enough for -bench=. while
// staying beyond predictor training horizons.
func benchOpts() experiments.Opts {
	return experiments.Opts{Warmup: 20_000, Measure: 50_000}
}

func reportGeomeans(b *testing.B, t *stats.Table) {
	b.Helper()
	for i, col := range t.Columns {
		b.ReportMetric(stats.Geomean(t.Column(i)), col+"_gm")
	}
}

func BenchmarkTable3_BaselineIPC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Table3(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		ipc, _ := t.ColumnByName("IPC")
		b.ReportMetric(stats.Geomean(ipc), "ipc_gm")
	}
}

func BenchmarkFigure2_EarlyExecutable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Figure2(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		one, _ := t.ColumnByName("1_ALU_stage")
		two, _ := t.ColumnByName("2_ALU_stages")
		b.ReportMetric(mean(one), "ee1_mean")
		b.ReportMetric(mean(two), "ee2_mean")
	}
}

func BenchmarkFigure4_LateExecutable(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Figure4(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		tot, _ := t.ColumnByName("total")
		b.ReportMetric(mean(tot), "le_mean")
		b.ReportMetric(stats.Max(tot), "le_max")
	}
}

func BenchmarkFigure6_ValuePredictionSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Figure6(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		reportGeomeans(b, t)
	}
}

func BenchmarkFigure7_IssueWidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Figure7(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		reportGeomeans(b, t)
	}
}

func BenchmarkFigure8_IQSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Figure8(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		reportGeomeans(b, t)
	}
}

func BenchmarkFigure10_PRFBanks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Figure10(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		reportGeomeans(b, t)
	}
}

func BenchmarkFigure11_LEVTPorts(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Figure11(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		reportGeomeans(b, t)
	}
}

func BenchmarkFigure12_Headline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Figure12(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		reportGeomeans(b, t)
	}
}

func BenchmarkFigure13_OLE_EOE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t, err := experiments.Figure13(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		reportGeomeans(b, t)
	}
}

// BenchmarkAblationPredictors compares the whole value-predictor
// family (coverage and squash rate) on a mixed benchmark subset — the
// design space the paper's related-work section spans.
func BenchmarkAblationPredictors(b *testing.B) {
	wls := []string{"art", "applu", "hmmer", "gzip", "vortex"}
	for _, name := range vpred.FamilyNames() {
		name := name
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var cov, wrongPKI float64
				for _, wl := range wls {
					w, err := eole.WorkloadByName(wl)
					if err != nil {
						b.Fatal(err)
					}
					h := bpred.NewHistory()
					p, _ := vpred.NewByName(name, h)
					meter := &vpred.Meter{P: p}
					m := w.NewMachine()
					m.Run(100_000, func(u *prog.MicroOp) bool {
						if u.IsBranch() {
							h.Push(!u.Op.Class().IsCondBranch() || u.Taken)
						} else if u.VPEligible() {
							meter.Observe(u.PC, u.Value)
						}
						return true
					})
					cov += meter.Coverage()
					wrongPKI += meter.MispredictPerKilo()
				}
				b.ReportMetric(cov/float64(len(wls)), "coverage")
				b.ReportMetric(wrongPKI/float64(len(wls)), "wrongPK")
			}
		})
	}
}

// BenchmarkAblationFPC sweeps the FPC probability vector: the paper's
// vector against an always-increment (plain 3-bit) counter and a
// stricter 1/128 tail, showing the coverage/accuracy trade-off that
// makes commit-time validation viable.
func BenchmarkAblationFPC(b *testing.B) {
	vectors := map[string]vpred.FPCVector{
		"plain3bit":  {1, 1, 1, 1, 1, 1, 1},
		"paper":      vpred.DefaultFPCVector(),
		"strict_128": {1, 32, 32, 32, 32, 128, 128},
	}
	for _, name := range []string{"plain3bit", "paper", "strict_128"} {
		vec := vectors[name]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				w, err := eole.WorkloadByName("gzip")
				if err != nil {
					b.Fatal(err)
				}
				p := vpred.NewTwoDeltaStride(13, vec)
				meter := &vpred.Meter{P: p}
				m := w.NewMachine()
				m.Run(150_000, func(u *prog.MicroOp) bool {
					if u.VPEligible() {
						meter.Observe(u.PC, u.Value)
					}
					return true
				})
				b.ReportMetric(meter.Coverage(), "coverage")
				b.ReportMetric(meter.MispredictPerKilo(), "wrongPK")
			}
		})
	}
}

// BenchmarkAblationEEDepth quantifies the paper's Figure 2 design
// choice on IPC: a second EE ALU stage adds hardware but almost no
// performance.
func BenchmarkAblationEEDepth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := benchOpts()
		o.Workloads = []string{"namd", "crafty", "art", "gzip", "sjeng"}
		t, err := experiments.Figure2(o)
		if err != nil {
			b.Fatal(err)
		}
		one, _ := t.ColumnByName("1_ALU_stage")
		two, _ := t.ColumnByName("2_ALU_stages")
		b.ReportMetric(mean(two)-mean(one), "ee_gain_frac")
	}
}

// BenchmarkAblationLEBranches measures the contribution of resolving
// very-high-confidence branches in the LE/VT stage (§3.3) versus
// late-executing only predicted ALU µ-ops.
func BenchmarkAblationLEBranches(b *testing.B) {
	for i := 0; i < b.N; i++ {
		withBr, err := eole.NamedConfig("EOLE_4_64")
		if err != nil {
			b.Fatal(err)
		}
		without := withBr
		without.Name = "EOLE_4_64_noLEbr"
		without.LEBranches = false
		var gmWith, gmWithout []float64
		for _, wl := range []string{"crafty", "art", "milc", "gzip", "sjeng"} {
			w, err := eole.WorkloadByName(wl)
			if err != nil {
				b.Fatal(err)
			}
			r1, err := eole.Simulate(withBr, w, 20_000, 50_000)
			if err != nil {
				b.Fatal(err)
			}
			r2, err := eole.Simulate(without, w, 20_000, 50_000)
			if err != nil {
				b.Fatal(err)
			}
			gmWith = append(gmWith, r1.OffloadFraction)
			gmWithout = append(gmWithout, r2.OffloadFraction)
		}
		b.ReportMetric(mean(gmWith), "offload_with")
		b.ReportMetric(mean(gmWithout), "offload_without")
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed
// (committed µ-ops per second) of the full EOLE machine in its two
// regimes: crafty keeps the pipeline busy every cycle, mcf spends nine
// cycles in ten waiting on DRAM.
func BenchmarkSimulatorThroughput(b *testing.B) {
	cfg, err := eole.NamedConfig("EOLE_4_64")
	if err != nil {
		b.Fatal(err)
	}
	for _, wl := range []string{"crafty", "mcf"} {
		w, err := eole.WorkloadByName(wl)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(wl, func(b *testing.B) {
			sim, err := eole.NewSimulator(cfg, w)
			if err != nil {
				b.Fatal(err)
			}
			sim.Run(10_000)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sim.Run(10_000)
			}
			b.ReportMetric(float64(10_000*b.N)/b.Elapsed().Seconds(), "µops/s")
		})
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
