package bpred

import (
	"testing"

	"eole/internal/isa"
)

// The branch unit sits on the per-µ-op fetch path; any allocation in
// OnBranch would dominate the simulator's heap profile. Pin it at zero.
func TestOnBranchZeroAlloc(t *testing.T) {
	u := NewUnit()
	// Warm so TAGE allocation decisions and BTB fills are exercised
	// before measuring.
	lcg := uint64(12345)
	step := func() {
		lcg = lcg*6364136223846793005 + 1442695040888963407
		pc := 0x400000 + (lcg>>33)%4096*4
		taken := lcg>>62&1 == 0
		u.OnBranch(isa.ClassBranch, pc, pc+64, pc+4, taken)
		u.OnBranch(isa.ClassCall, pc+8, pc+512, pc+12, true)
		u.OnBranch(isa.ClassReturn, pc+512, pc+12, pc+516, true)
		u.OnBranch(isa.ClassJumpReg, pc+16, pc+(lcg>>40)%64*4, pc+20, true)
	}
	for i := 0; i < 20_000; i++ {
		step()
	}
	if avg := testing.AllocsPerRun(100, step); avg != 0 {
		t.Fatalf("OnBranch allocated %.2f times per 4-branch step, want 0", avg)
	}
}

// Every core that predicts live builds a Unit, and the BTB used to
// allocate one slice per set: 2 048 objects of the ~2 100 a Unit took.
// Its entries are one array now, and TAGE's tagged entries and tags are
// one flat array each; its tables, the history and the RAS are the 20
// left.
func TestNewUnitAllocBudget(t *testing.T) {
	if avg := testing.AllocsPerRun(5, func() { NewUnit() }); avg > 20 {
		t.Fatalf("NewUnit allocated %.0f times, budget 20", avg)
	}
}
