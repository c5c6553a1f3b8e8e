package eole_test

import (
	"testing"
	"time"

	"eole"
	"eole/internal/config"
	"eole/internal/core"
	"eole/internal/prog"
	"eole/internal/stats"
	"eole/internal/workload"
)

// runWorkload simulates a (possibly synthetic, unregistered) workload.
func runWorkload(b *testing.B, cfg eole.Config, w workload.Workload, warm, n uint64) *core.Stats {
	b.Helper()
	c := core.New(cfg, prog.MachineSource{M: w.NewMachine()})
	c.Run(warm)
	c.ResetStats()
	return c.Run(n)
}

// BenchmarkSweepValuePredictability sweeps the fraction of
// value-predictable dependence chains in a synthetic kernel and
// reports how EOLE's offload and speedup respond — the controlled
// version of the per-benchmark spread in Figures 2/4/7.
func BenchmarkSweepValuePredictability(b *testing.B) {
	for _, w := range workload.PredictabilitySweep() {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfgVP, _ := eole.NamedConfig("Baseline_VP_6_64")
				cfgE, _ := eole.NamedConfig("EOLE_4_64")
				sVP := runWorkload(b, cfgVP, w, 20_000, 50_000)
				sE := runWorkload(b, cfgE, w, 20_000, 50_000)
				b.ReportMetric(sE.OffloadFraction(), "offload")
				b.ReportMetric(sE.IPC()/sVP.IPC(), "eole4_vs_vp6")
			}
		})
	}
}

// BenchmarkSweepBranchBias sweeps conditional-branch bias and reports
// the very-high-confidence classification rate and the resulting Late
// Execution branch offload (§3.3: only saturated-confidence branches
// may resolve at LE/VT).
func BenchmarkSweepBranchBias(b *testing.B) {
	for _, w := range workload.BranchBiasSweep() {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg, _ := eole.NamedConfig("EOLE_6_64")
				s := runWorkload(b, cfg, w, 30_000, 60_000)
				b.ReportMetric(float64(s.LateBranches)/float64(s.Committed), "leBranchFrac")
				b.ReportMetric(1000*float64(s.BranchMispredicts)/float64(s.Committed), "brMPKI")
			}
		})
	}
}

// BenchmarkSweepFootprint sweeps the data footprint from L1-resident
// to DRAM-sized and reports IPC: the memory-boundedness axis that
// separates mcf/milc/lbm from the ILP-bound benchmarks.
func BenchmarkSweepFootprint(b *testing.B) {
	for _, w := range workload.FootprintSweep() {
		w := w
		b.Run(w.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg, _ := eole.NamedConfig("Baseline_6_64")
				s := runWorkload(b, cfg, w, 20_000, 50_000)
				b.ReportMetric(s.IPC(), "ipc")
			}
		})
	}
}

// BenchmarkExtensionLEReturns evaluates the paper's §7 future-work
// idea: late-executing very-high-confidence returns and indirect
// jumps. Reported on the call-heavy benchmarks where it matters.
func BenchmarkExtensionLEReturns(b *testing.B) {
	wls := []string{"vortex", "gamess", "sjeng", "parser", "gcc"}
	for i := 0; i < b.N; i++ {
		base, _ := eole.NamedConfig("EOLE_4_64")
		ext, err := config.New(config.FromConfig(base), config.LEReturns(true))
		if err != nil {
			b.Fatal(err)
		}
		var offBase, offExt, ipcRel []float64
		for _, name := range wls {
			w, err := eole.WorkloadByName(name)
			if err != nil {
				b.Fatal(err)
			}
			sb := runWorkload(b, base, w, 20_000, 50_000)
			se := runWorkload(b, ext, w, 20_000, 50_000)
			offBase = append(offBase, sb.OffloadFraction())
			offExt = append(offExt, se.OffloadFraction())
			ipcRel = append(ipcRel, se.IPC()/sb.IPC())
		}
		b.ReportMetric(avg(offBase), "offload_base")
		b.ReportMetric(avg(offExt), "offload_LEret")
		b.ReportMetric(stats.Geomean(ipcRel), "speedup_gm")
	}
}

// BenchmarkAblationIssue8 verifies the paper's footnote 7: "an 8-issue
// machine achieves only marginal speedup over this baseline".
func BenchmarkAblationIssue8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var rel []float64
		for _, name := range []string{"namd", "crafty", "hmmer", "gzip", "art", "milc"} {
			w, err := eole.WorkloadByName(name)
			if err != nil {
				b.Fatal(err)
			}
			c6, _ := eole.NamedConfig("Baseline_VP_6_64")
			c8, _ := eole.NamedConfig("Baseline_VP_8_64")
			s6 := runWorkload(b, c6, w, 20_000, 50_000)
			s8 := runWorkload(b, c8, w, 20_000, 50_000)
			rel = append(rel, s8.IPC()/s6.IPC())
		}
		b.ReportMetric(stats.Geomean(rel), "issue8_vs_6_gm")
	}
}

// BenchmarkPipeTraceOverhead quantifies the cost of attaching a tracer
// with an empty window (it should be negligible). An untraced and a
// traced simulator advance in lock-step over the same µ-op range, 5 000
// µ-ops each per iteration, alternating which one runs first, so host
// noise falls on both alike; "on/off" is the ratio of their summed
// times, and ns/op is the pair's.
func BenchmarkPipeTraceOverhead(b *testing.B) {
	cfg, _ := eole.NamedConfig("EOLE_4_64")
	w, _ := eole.WorkloadByName("crafty")
	off, err := eole.NewSimulator(cfg, w)
	if err != nil {
		b.Fatal(err)
	}
	on, err := eole.NewSimulator(cfg, w, eole.WithTracer(new(eole.PipeTrace)))
	if err != nil {
		b.Fatal(err)
	}
	var offNS, onNS time.Duration
	timed := func(sim *eole.Simulator, sum *time.Duration) {
		t0 := time.Now()
		sim.Run(5_000)
		*sum += time.Since(t0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2 == 0 {
			timed(off, &offNS)
			timed(on, &onNS)
		} else {
			timed(on, &onNS)
			timed(off, &offNS)
		}
	}
	b.ReportMetric(float64(onNS)/float64(offNS), "on/off")
}

func avg(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
