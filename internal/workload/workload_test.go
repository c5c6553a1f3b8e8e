package workload

import (
	"testing"

	"eole/internal/isa"
	"eole/internal/prog"
)

func TestAllNineteenRegistered(t *testing.T) {
	all := All()
	if len(all) != 19 {
		t.Fatalf("registered %d workloads, want 19 (Table 3)", len(all))
	}
	ints, fps := 0, 0
	seen := map[string]bool{}
	for _, w := range all {
		if seen[w.Name] {
			t.Errorf("duplicate workload %s", w.Name)
		}
		seen[w.Name] = true
		if w.FP {
			fps++
		} else {
			ints++
		}
		if w.PaperIPC <= 0 {
			t.Errorf("%s: missing paper IPC", w.Name)
		}
		if w.Description == "" {
			t.Errorf("%s: missing description", w.Name)
		}
	}
	// Table 3: 12 INT, 7 FP.
	if ints != 12 || fps != 7 {
		t.Errorf("suite split = %d INT / %d FP, want 12/7", ints, fps)
	}
}

func TestByName(t *testing.T) {
	w, err := ByName("mcf")
	if err != nil || w.Name != "429.mcf" {
		t.Fatalf("ByName(mcf) = %v, %v", w.Name, err)
	}
	w, err = ByName("429.mcf")
	if err != nil || w.Short != "mcf" {
		t.Fatalf("ByName(429.mcf) = %v, %v", w.Short, err)
	}
	if _, err := ByName("no-such-benchmark"); err == nil {
		t.Fatal("expected error for unknown benchmark")
	}
}

// TestByNameKeepsFirstMatch: the name index answers every full and
// short name, and a few that are neither, exactly as a first-match scan
// of the Table 3 registry and then the long-* family does.
func TestByNameKeepsFirstMatch(t *testing.T) {
	scan := func(name string) (Workload, bool) {
		for _, w := range append(append([]Workload{}, registry...), longRegistry...) {
			if w.Name == name || w.Short == name {
				return w, true
			}
		}
		return Workload{}, false
	}
	names := []string{"", "nope", "MCF", "429.mcf "}
	distinct := map[string]bool{}
	for _, w := range append(All(), LongAll()...) {
		names = append(names, w.Name, w.Short)
		distinct[w.Name], distinct[w.Short] = true, true
	}
	for _, name := range names {
		want, ok := scan(name)
		got, err := ByName(name)
		if ok != (err == nil) || got.Name != want.Name || got.Short != want.Short || got.Program != want.Program {
			t.Errorf("ByName(%q) = %s/%s, %v; the scan finds %s/%s (found %v)", name, got.Name, got.Short, err, want.Name, want.Short, ok)
		}
	}
	if n := len(byName()); n != len(distinct) {
		t.Errorf("the index holds %d names, the workloads have %d", n, len(distinct))
	}
}

func TestEveryKernelRunsWithoutHalting(t *testing.T) {
	const n = 20000
	for _, w := range All() {
		w := w
		t.Run(w.Short, func(t *testing.T) {
			m := w.NewMachine()
			done := m.Run(n, nil)
			if done != n {
				t.Fatalf("ran %d µ-ops, want %d (kernel must loop forever)", done, n)
			}
			if m.Halted() {
				t.Fatal("kernel halted; workloads must be infinite")
			}
		})
	}
}

func TestKernelsDeterministic(t *testing.T) {
	const n = 5000
	for _, w := range All() {
		w := w
		t.Run(w.Short, func(t *testing.T) {
			m1, m2 := w.NewMachine(), w.NewMachine()
			for i := 0; i < n; i++ {
				u1, ok1 := m1.Step()
				u2, ok2 := m2.Step()
				if ok1 != ok2 || u1 != u2 {
					t.Fatalf("divergence at µ-op %d: %+v vs %+v", i, u1, u2)
				}
			}
		})
	}
}

// instructionMix measures dynamic class fractions over n µ-ops.
func instructionMix(w Workload, n uint64) map[isa.Class]float64 {
	m := w.NewMachine()
	counts := map[isa.Class]uint64{}
	m.Run(n, func(u *prog.MicroOp) bool {
		counts[u.Class()]++
		return true
	})
	mix := map[isa.Class]float64{}
	for c, k := range counts {
		mix[c] = float64(k) / float64(n)
	}
	return mix
}

func TestMcfIsPointerChase(t *testing.T) {
	// mcf must be load-heavy and its chase loads must spread over a
	// footprint far larger than the 2MB L2.
	w, _ := ByName("mcf")
	m := w.NewMachine()
	pages := map[uint64]bool{}
	m.Run(50000, func(u *prog.MicroOp) bool {
		if u.Op == isa.OpLd {
			pages[u.Addr>>12] = true
		}
		return true
	})
	// 50K µ-ops -> ~7K chase iterations over random 32MB: expect to
	// touch thousands of distinct 4KB blocks.
	if len(pages) < 2000 {
		t.Fatalf("mcf touched only %d pages; chase is not DRAM-sized", len(pages))
	}
}

func TestNamdIsALUDense(t *testing.T) {
	w, _ := ByName("namd")
	mix := instructionMix(w, 20000)
	if mix[isa.ClassALU] < 0.5 {
		t.Fatalf("namd ALU fraction = %.2f, want >= 0.5 (offload potential)", mix[isa.ClassALU])
	}
}

func TestMilcAndLbmAreFPStreaming(t *testing.T) {
	for _, name := range []string{"milc", "lbm"} {
		w, _ := ByName(name)
		mix := instructionMix(w, 20000)
		fp := mix[isa.ClassFP] + mix[isa.ClassFPMul] + mix[isa.ClassFPDiv]
		memOps := mix[isa.ClassLoad] + mix[isa.ClassStore]
		if fp+memOps < 0.5 {
			t.Errorf("%s: FP+mem fraction = %.2f, want >= 0.5", name, fp+memOps)
		}
		if mix[isa.ClassALU] > 0.45 {
			t.Errorf("%s: ALU fraction = %.2f, want < 0.45 (low offload)", name, mix[isa.ClassALU])
		}
	}
}

func TestHmmerHasFewBranches(t *testing.T) {
	w, _ := ByName("hmmer")
	mix := instructionMix(w, 20000)
	br := mix[isa.ClassBranch]
	if br > 0.06 {
		t.Fatalf("hmmer conditional-branch fraction = %.2f, want <= 0.06 (branch-free DP)", br)
	}
}

func TestGobmkIsBranchy(t *testing.T) {
	w, _ := ByName("gobmk")
	mix := instructionMix(w, 20000)
	if mix[isa.ClassBranch] < 0.10 {
		t.Fatalf("gobmk branch fraction = %.2f, want >= 0.10", mix[isa.ClassBranch])
	}
}

func TestVortexUsesCalls(t *testing.T) {
	w, _ := ByName("vortex")
	mix := instructionMix(w, 20000)
	if mix[isa.ClassCall] == 0 || mix[isa.ClassReturn] == 0 {
		t.Fatal("vortex must exercise call/return (RAS traffic)")
	}
}

func TestGccUsesIndirectJumps(t *testing.T) {
	w, _ := ByName("gcc")
	mix := instructionMix(w, 20000)
	if mix[isa.ClassJumpReg] < 0.02 {
		t.Fatalf("gcc indirect-jump fraction = %.3f, want >= 0.02", mix[isa.ClassJumpReg])
	}
}

func TestBranchBiasCharacters(t *testing.T) {
	// vpr's accept branch must be near 50/50; wupwise's loop branch
	// must be overwhelmingly taken.
	takenRate := func(name string) float64 {
		w, _ := ByName(name)
		m := w.NewMachine()
		var taken, total float64
		m.Run(30000, func(u *prog.MicroOp) bool {
			if u.Class() == isa.ClassBranch {
				total++
				if u.Taken {
					taken++
				}
			}
			return true
		})
		return taken / total
	}
	if r := takenRate("wupwise"); r < 0.9 {
		t.Errorf("wupwise loop branches taken rate = %.2f, want >= 0.9", r)
	}
}

func TestVPEligibleFractionReasonable(t *testing.T) {
	// Across the suite, most µ-ops produce registers: the predictor
	// must have plenty to chew on (paper §4.2 predicts every eligible
	// µ-op).
	for _, w := range All() {
		m := w.NewMachine()
		var elig, total float64
		m.Run(10000, func(u *prog.MicroOp) bool {
			total++
			if u.VPEligible() {
				elig++
			}
			return true
		})
		if frac := elig / total; frac < 0.3 {
			t.Errorf("%s: VP-eligible fraction = %.2f, want >= 0.3", w.Short, frac)
		}
	}
}

func TestVortexFieldLoadsAreConstant(t *testing.T) {
	// vortex's object-header loads must return the same value on every
	// visit (the high-last-value-predictability trait).
	w, _ := ByName("vortex")
	m := w.NewMachine()
	valuesByPC := map[uint64]map[uint64]bool{}
	m.Run(30000, func(u *prog.MicroOp) bool {
		if u.Op == isa.OpLd {
			set := valuesByPC[u.PC]
			if set == nil {
				set = map[uint64]bool{}
				valuesByPC[u.PC] = set
			}
			set[u.Value] = true
		}
		return true
	})
	constant := 0
	for _, set := range valuesByPC {
		if len(set) == 1 {
			constant++
		}
	}
	if constant < 2 {
		t.Fatalf("vortex has %d constant load PCs, want >= 2", constant)
	}
}

func TestCraftyIsALUDense(t *testing.T) {
	w, _ := ByName("crafty")
	mix := instructionMix(w, 20000)
	if mix[isa.ClassALU] < 0.55 {
		t.Fatalf("crafty ALU fraction = %.2f, want >= 0.55 (bitboard algebra)", mix[isa.ClassALU])
	}
}

func TestWupwiseStridesPerfectly(t *testing.T) {
	// The complex-MAC pointer bumps must stride without breaks for
	// thousands of iterations (they wrap only every 16K iterations).
	w, _ := ByName("wupwise")
	m := w.NewMachine()
	lastAddr := map[uint64]uint64{}
	var stable, total float64
	m.Run(40000, func(u *prog.MicroOp) bool {
		if u.Op == isa.OpLd {
			if l, ok := lastAddr[u.PC]; ok {
				total++
				if u.Addr-l == 16 {
					stable++
				}
			}
			lastAddr[u.PC] = u.Addr
		}
		return true
	})
	if r := stable / total; r < 0.99 {
		t.Fatalf("wupwise load stride stability = %.3f, want >= 0.99", r)
	}
}

func TestArtValuesRepeat(t *testing.T) {
	// art's weight loads must revisit a short value sequence so that a
	// context-based predictor can learn it: check that the weight-load
	// PC sees at most 8 distinct values.
	w, _ := ByName("art")
	m := w.NewMachine()
	valuesByPC := map[uint64]map[uint64]bool{}
	m.Run(30000, func(u *prog.MicroOp) bool {
		if u.Op == isa.OpLd {
			set := valuesByPC[u.PC]
			if set == nil {
				set = map[uint64]bool{}
				valuesByPC[u.PC] = set
			}
			set[u.Value] = true
		}
		return true
	})
	small := 0
	for _, set := range valuesByPC {
		if len(set) <= 8 {
			small++
		}
	}
	if small == 0 {
		t.Fatal("art: no load PC has a small repeating value set")
	}
}
