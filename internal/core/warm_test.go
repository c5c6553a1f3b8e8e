package core

import (
	"context"
	"reflect"
	"testing"

	"eole/internal/config"
	"eole/internal/isa"
	"eole/internal/prog"
	"eole/internal/trace"
	"eole/internal/workload"
)

func newTestCore(t testing.TB, cfgName, wlName string) *Core {
	t.Helper()
	cfg, err := config.Named(cfgName)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.ByName(wlName)
	if err != nil {
		t.Fatal(err)
	}
	return New(cfg, prog.MachineSource{M: w.NewMachine()})
}

// TestWarmConsumesExactly: Warm advances the source by exactly n
// µ-ops when the source can serve them, and by the remainder when it
// cannot.
func TestWarmConsumesExactly(t *testing.T) {
	c := newTestCore(t, "EOLE_4_64", "gzip")
	if got := c.Warm(10_000); got != 10_000 {
		t.Fatalf("Warm(10000) consumed %d", got)
	}
	if got := c.Skip(5_000); got != 5_000 {
		t.Fatalf("Skip(5000) consumed %d", got)
	}

	// A halting program ends the warm early.
	b := prog.NewBuilder("tiny")
	b.Movi(isa.IntReg(1), 7)
	b.Addi(isa.IntReg(1), isa.IntReg(1), 1)
	b.Halt()
	p := b.MustBuild()
	m := prog.NewMachine(p)
	cfg, _ := config.Named("EOLE_4_64")
	c2 := New(cfg, prog.MachineSource{M: m})
	if got := c2.Warm(100); got != 3 {
		t.Fatalf("Warm over a 3-µ-op program consumed %d", got)
	}
	if got := c2.Warm(100); got != 0 {
		t.Fatalf("Warm past the end consumed %d", got)
	}
}

// TestWarmTrainsPredictorsSkipDoesNot: warming observably trains the
// branch stack and touches the caches; skipping leaves both untouched.
func TestWarmTrainsPredictorsSkipDoesNot(t *testing.T) {
	warm := newTestCore(t, "EOLE_4_64", "gzip")
	warm.Warm(50_000)
	if warm.Branch().HighConfFraction() == 0 {
		t.Error("Warm did not train the branch predictor (no confidence state)")
	}
	if warm.Memory().L1D.Accesses == 0 {
		t.Error("Warm did not touch the data cache")
	}

	skip := newTestCore(t, "EOLE_4_64", "gzip")
	skip.Skip(50_000)
	if f := skip.Branch().HighConfFraction(); f != 0 {
		t.Errorf("Skip trained the branch predictor (high-conf fraction %v)", f)
	}
	if n := skip.Memory().L1D.Accesses; n != 0 {
		t.Errorf("Skip touched the data cache (%d accesses)", n)
	}
	if st := skip.Stats(); st.Cycles != 0 || st.Committed != 0 {
		t.Errorf("Skip accumulated stats: %+v", st)
	}
}

// TestWarmNoCycleAccounting: warming must not charge cycles or
// commits.
func TestWarmNoCycleAccounting(t *testing.T) {
	c := newTestCore(t, "EOLE_4_64", "gzip")
	c.Warm(50_000)
	if st := c.Stats(); st.Cycles != 0 || st.Committed != 0 || st.Fetched != 0 {
		t.Errorf("Warm accumulated pipeline stats: %+v", st)
	}
}

// TestWarmMatchesDetailedPredictorTraining: the detailed core trains
// each predictor once per dynamic µ-op in fetch order, which is
// exactly the warm loop's order and multiplicity — so warming N µ-ops
// must leave the branch stack in the same observable state as a
// detailed run over those N fetches.
func TestWarmMatchesDetailedPredictorTraining(t *testing.T) {
	const n = 30_000
	warm := newTestCore(t, "Baseline_VP_6_64", "gzip")
	warm.Warm(n)

	det := newTestCore(t, "Baseline_VP_6_64", "gzip")
	for det.Stats().Fetched < n {
		det.Run(1_000)
	}
	// The detailed run fetched a little past n; re-fetch the warm core
	// up to the same point so the comparison covers identical streams.
	warm.Warm(det.Stats().Fetched - n)

	wb, db := warm.Branch(), det.Branch()
	if w, d := wb.HighConfFraction(), db.HighConfFraction(); w != d {
		t.Errorf("high-conf fraction: warm %v, detailed %v", w, d)
	}
	if w, d := wb.CondMispredictRate(), db.CondMispredictRate(); w != d {
		t.Errorf("conditional mispredict rate: warm %v, detailed %v", w, d)
	}
}

// TestFlushPipelineKeepsSimulating: after a detailed region is cut
// short by a flush, the core must keep committing correctly (fresh
// RAT, full PRF, no stale queue occupancy) — this is the window
// boundary of sampled simulation.
func TestFlushPipelineKeepsSimulating(t *testing.T) {
	for _, cfgName := range []string{"Baseline_6_64", "EOLE_4_64", "EOLE_4_64_4ports_4banks"} {
		c := newTestCore(t, cfgName, "gzip")
		for i := 0; i < 4; i++ {
			c.Run(5_000)
			c.FlushPipeline()
			c.Warm(3_000)
			c.FlushPipeline()
		}
		st := c.Run(5_000)
		if st.Committed < 4*5_000 {
			t.Errorf("%s: committed %d after flush cycles, want >= 20000", cfgName, st.Committed)
		}
		// The PRF must be fully free after a flush (nothing in flight).
		c.FlushPipeline()
		prf := c.prf
		if free := prf.TotalFree(false); free != c.cfg.PRF.IntRegs {
			t.Errorf("%s: %d INT registers free after flush, want %d", cfgName, free, c.cfg.PRF.IntRegs)
		}
	}
}

// TestStatsAddCoversEveryField: Stats.Add must sum every counter — a
// field added to Stats but missed by an aggregation would silently
// vanish from sampled reports (Add reflects over the struct, so this
// also pins the all-uint64 shape Add depends on).
func TestStatsAddCoversEveryField(t *testing.T) {
	var src Stats
	v := reflect.ValueOf(&src).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetUint(uint64(i + 1))
	}
	var dst Stats
	dst.Add(&src)
	dst.Add(&src)
	d := reflect.ValueOf(dst)
	for i := 0; i < d.NumField(); i++ {
		if got, want := d.Field(i).Uint(), uint64(2*(i+1)); got != want {
			t.Errorf("Stats field %s: Add result %d, want %d (field not accumulated?)",
				d.Type().Field(i).Name, got, want)
		}
	}
}

// TestWarmContextCancel: a canceled context stops the warm loop
// promptly with ctx.Err().
func TestWarmContextCancel(t *testing.T) {
	c := newTestCore(t, "EOLE_4_64", "gzip")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.WarmContext(ctx, 1<<40); err != context.Canceled {
		t.Errorf("WarmContext on canceled ctx: err %v", err)
	}
	if _, err := c.SkipContext(ctx, 1<<40); err != context.Canceled {
		t.Errorf("SkipContext on canceled ctx: err %v", err)
	}
}

// BenchmarkWarmRate reports the warm-mode µ-op rate next to the
// detailed-mode rate: the fast-forward economics behind sampled
// simulation. The ratio is workload-dependent — roughly 3x for
// high-IPC kernels whose detailed cycles are cheap, 15x+ for
// memory-bound kernels. warm-replay/long-dram is the warm loop the way a
// sampled cell runs it: over a streaming cursor on a recorded trace
// (each µ-op decoded, not interpreted), on the workload sampled cells
// are made for.
func BenchmarkWarmRate(b *testing.B) {
	for _, wl := range []string{"gzip", "mcf"} {
		b.Run("warm/"+wl, func(b *testing.B) {
			c := newTestCore(b, "EOLE_4_64", wl)
			c.Warm(10_000)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Warm(100_000)
			}
			b.ReportMetric(float64(100_000*b.N)/b.Elapsed().Seconds()/1e6, "Mµops/s")
		})
		b.Run("detailed/"+wl, func(b *testing.B) {
			c := newTestCore(b, "EOLE_4_64", wl)
			c.Run(10_000)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Run(20_000)
			}
			b.ReportMetric(float64(20_000*b.N)/b.Elapsed().Seconds()/1e6, "Mµops/s")
		})
	}
	b.Run("warm-replay/long-dram", func(b *testing.B) {
		cfg, err := config.Named("EOLE_4_64")
		if err != nil {
			b.Fatal(err)
		}
		w, err := workload.ByName("long-dram")
		if err != nil {
			b.Fatal(err)
		}
		tr := trace.Record(w, 1<<20)
		// A fresh core on a fresh cursor whenever the trace runs short.
		fresh := func() (*Core, uint64) {
			src, err := tr.SourceFor(w)
			if err != nil {
				b.Fatal(err)
			}
			return New(cfg, src), tr.Count
		}
		c, left := fresh()
		c.Warm(10_000)
		left -= 10_000
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if left < 100_000 {
				b.StopTimer()
				c, left = fresh()
				b.StartTimer()
			}
			c.Warm(100_000)
			left -= 100_000
		}
		b.ReportMetric(float64(100_000*b.N)/b.Elapsed().Seconds()/1e6, "Mµops/s")
	})
}
