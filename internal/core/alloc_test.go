package core

import (
	"testing"

	"eole/internal/config"
	"eole/internal/prog"
	"eole/internal/trace"
	"eole/internal/workload"
)

// The detailed cycle loop allocates nothing in steady state: the
// source is drained through a reusable batch buffer, and every µ-op in
// flight — window, front-end queue, awaiting refetch — lives in the one
// ring allocated in New. These
// tests pin that budget at zero so a regression (an escaping
// temporary, a queue re-allocated per cycle or per squash) fails
// loudly instead of silently costing throughput. Zero, not "a few":
// a squash-heavy run squashes every ~25 µ-ops, so any allocation on
// the recovery path is hundreds of megabytes per simulated cell.

// steadyCore returns a warmed-up core. Predictor tables and every
// queue, the issue queue included, are fixed at construction, so the
// warm-up is for the measured chunks to be steady-state cycles, not to
// outgrow anything.
func steadyCore(tb testing.TB, cfgName, wlName string) *Core {
	tb.Helper()
	return steadyCoreAt(tb, cfgName, wlName, 0)
}

// steadyCoreAt is steadyCore with ffwd µ-ops functionally warmed
// before the warm-up, to start it in a later phase of the workload
// with the predictors trained as the earlier phases leave them. The
// machine is private — Setup applied to it directly rather than
// forked from the workload's shared image — so that the interpreter's
// copy-on-write page copies (one 512-byte page per first store to an
// image page, a few dozen per chunk in a streaming phase) are not
// charged to the core; the repo root's TestSampledCellAllocBudget
// bounds those.
func steadyCoreAt(tb testing.TB, cfgName, wlName string, ffwd uint64) *Core {
	tb.Helper()
	cfg, err := config.Named(cfgName)
	if err != nil {
		tb.Fatal(err)
	}
	w, err := workload.ByName(wlName)
	if err != nil {
		tb.Fatal(err)
	}
	m := prog.NewMachine(w.Program)
	w.Setup(m)
	c := New(cfg, prog.MachineSource{M: m})
	c.Warm(ffwd)
	c.Run(30_000)
	return c
}

func TestCoreSteadyStateAllocBudget(t *testing.T) {
	for _, tc := range []struct {
		cfg, wl string
		ffwd    uint64
		// minSquashPKI is the least VP-squash rate (per kilo-µ-op) the
		// measured chunks must show for the case to mean anything.
		minSquashPKI float64
	}{
		{cfg: "Baseline_6_64", wl: "gzip"},
		{cfg: "EOLE_4_64", wl: "crafty"},
		{cfg: "EOLE_4_64_4ports_4banks", wl: "mcf"},
		// Squash storm: from its second phase cycle on (~950K µ-ops
		// in), long-dram's compute phase squashes twice per 12-µ-op
		// iteration under EOLE_4_64 — r20 comes out of the scramble
		// phase with its top bit set, its stride prediction is right
		// but the flags derived from it are not — and 14 of every 15
		// fetches are refetches of squashed µ-ops.
		{cfg: "EOLE_4_64", wl: "long-dram", ffwd: 1_000_000, minSquashPKI: 30},
	} {
		t.Run(tc.cfg+"/"+tc.wl, func(t *testing.T) {
			c := steadyCoreAt(t, tc.cfg, tc.wl, tc.ffwd)
			before := *c.Stats()
			const chunk = 5_000
			avg := testing.AllocsPerRun(4, func() { c.Run(chunk) })
			if avg > 0 {
				t.Fatalf("Run(%d) allocated %.0f times, budget 0", chunk, avg)
			}
			st := c.Stats()
			pki := 1000 * float64(st.VPSquashes-before.VPSquashes) / float64(st.Committed-before.Committed)
			if pki < tc.minSquashPKI {
				t.Fatalf("%.1f VP squashes per kilo-µ-op in the measured chunks, want >= %.0f", pki, tc.minSquashPKI)
			}
		})
	}
}

func TestWarmSkipAllocBudget(t *testing.T) {
	c := steadyCore(t, "EOLE_4_64", "gzip")
	c.FlushPipeline()
	if avg := testing.AllocsPerRun(4, func() { c.Warm(5_000) }); avg > 2 {
		t.Fatalf("Warm(5000) allocated %.0f times, budget 2", avg)
	}
	if avg := testing.AllocsPerRun(4, func() { c.Skip(5_000) }); avg > 2 {
		t.Fatalf("Skip(5000) allocated %.0f times, budget 2", avg)
	}
}

// Building its core is part of every cell's cost, and each cache used to
// allocate one slice per set: 2 048 L2 sets plus 2 × 128 L1 sets, ~2 350
// objects a core. Each cache is one array now. This holds the core a
// full-run cell builds (NewReplay: it has no predictor tables of its
// own) to that for every named config; a core predicting live adds what
// its predictors allocate.
func TestNewAllocBudget(t *testing.T) {
	w, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.Record(w, 1_000)
	for _, name := range config.KnownNames() {
		cfg, err := config.Named(name)
		if err != nil {
			t.Fatal(err)
		}
		if avg := testing.AllocsPerRun(3, func() {
			if _, err := NewReplay(cfg, tr, w); err != nil {
				t.Fatal(err)
			}
		}); avg > 64 {
			t.Errorf("%s: building a full run's core allocated %.0f times, budget 64", name, avg)
		}
	}
}
