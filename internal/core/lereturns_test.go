package core

import (
	"testing"

	"eole/internal/config"
	"eole/internal/prog"
	"eole/internal/workload"
)

// TestLEReturnsExtension exercises the §7 future-work feature: on
// call-heavy workloads, enabling LE of very-high-confidence returns
// and indirect jumps must raise the offload fraction without hurting
// performance.
func TestLEReturnsExtension(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	base, err := config.Named("EOLE_4_64")
	if err != nil {
		t.Fatal(err)
	}
	ext := base
	ext.LEReturns = true
	for _, name := range []string{"vortex", "gamess"} {
		run := func(cfg config.Config) *Stats {
			w, err := workload.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			c := New(cfg, prog.MachineSource{M: w.NewMachine()})
			c.Run(20_000)
			c.ResetStats()
			return c.Run(50_000)
		}
		sb, se := run(base), run(ext)
		if se.LateBranches <= sb.LateBranches {
			t.Errorf("%s: LE returns did not add late-resolved branches (%d vs %d)",
				name, se.LateBranches, sb.LateBranches)
		}
		if se.OffloadFraction() < sb.OffloadFraction() {
			t.Errorf("%s: offload dropped with LE returns: %.3f vs %.3f",
				name, se.OffloadFraction(), sb.OffloadFraction())
		}
		if se.IPC() < 0.95*sb.IPC() {
			t.Errorf("%s: LE returns cost %.1f%% IPC", name, 100*(1-se.IPC()/sb.IPC()))
		}
	}
}

// TestLEReturnsRequiresLateExecution pins the config invariant.
func TestLEReturnsRequiresLateExecution(t *testing.T) {
	c, err := config.Named("EOE_4_64") // early execution only
	if err != nil {
		t.Fatal(err)
	}
	c.LEReturns = true
	if err := c.Validate(); err == nil {
		t.Fatal("LEReturns without Late Execution must be rejected")
	}
}
