package regfile

import (
	"testing"
	"testing/quick"
)

func TestConfigValidation(t *testing.T) {
	bad := Config{IntRegs: 256, FPRegs: 256, Banks: 3}
	if err := bad.Validate(); err == nil {
		t.Fatal("256 registers across 3 banks must be rejected")
	}
	good := Config{IntRegs: 256, FPRegs: 256, Banks: 4}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if err := (Config{IntRegs: 256, FPRegs: 256, Banks: 0}).Validate(); err == nil {
		t.Fatal("zero banks must be rejected")
	}
}

func TestAllocFreeRoundTrip(t *testing.T) {
	p := New(Config{IntRegs: 8, FPRegs: 8, Banks: 2})
	for i := 0; i < 4; i++ {
		if !p.TryAlloc(false, 0) {
			t.Fatalf("alloc %d failed with registers free", i)
		}
	}
	if p.TryAlloc(false, 0) {
		t.Fatal("bank 0 must be exhausted")
	}
	// Other bank unaffected.
	if !p.TryAlloc(false, 1) {
		t.Fatal("bank 1 must still have registers")
	}
	p.Free(false, 0)
	if !p.TryAlloc(false, 0) {
		t.Fatal("freed register must be allocatable")
	}
}

func TestIntFPFilesIndependent(t *testing.T) {
	p := New(Config{IntRegs: 4, FPRegs: 4, Banks: 1})
	for i := 0; i < 4; i++ {
		p.TryAlloc(false, 0)
	}
	if p.TryAlloc(false, 0) {
		t.Fatal("INT file exhausted")
	}
	if !p.TryAlloc(true, 0) {
		t.Fatal("FP file must be independent")
	}
}

func TestDoubleFreePanics(t *testing.T) {
	p := New(Config{IntRegs: 4, FPRegs: 4, Banks: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double free")
		}
	}()
	p.Free(false, 0)
}

func TestBankForRoundRobin(t *testing.T) {
	p := New(Config{IntRegs: 256, FPRegs: 256, Banks: 4})
	counts := map[int]int{}
	for slot := 0; slot < 8; slot++ {
		counts[p.BankFor(slot)]++
	}
	// 8-wide group over 4 banks: exactly 2 per bank (Figure 9).
	for b := 0; b < 4; b++ {
		if counts[b] != 2 {
			t.Fatalf("bank %d receives %d allocations per 8-wide group, want 2", b, counts[b])
		}
	}
}

func TestAllocationConservation(t *testing.T) {
	f := func(ops []bool) bool {
		p := New(Config{IntRegs: 16, FPRegs: 16, Banks: 4})
		allocated := make([]int, 4)
		for i, alloc := range ops {
			b := i % 4
			if alloc {
				if p.TryAlloc(false, b) {
					allocated[b]++
				}
			} else if allocated[b] > 0 {
				p.Free(false, b)
				allocated[b]--
			}
		}
		for b := 0; b < 4; b++ {
			if p.FreeCount(false, b)+allocated[b] != 4 {
				return false
			}
		}
		return p.TotalFree(false) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLEVTArbiterUnconstrained(t *testing.T) {
	a := NewLEVTArbiter(Config{IntRegs: 256, FPRegs: 256, Banks: 4, LEVTReadPortsPerBank: 0})
	for i := 0; i < 100; i++ {
		if !a.TryReserve(0, 0, 0) {
			t.Fatal("unconstrained arbiter must always grant")
		}
	}
}

func TestLEVTArbiterEnforcesBudget(t *testing.T) {
	a := NewLEVTArbiter(Config{IntRegs: 256, FPRegs: 256, Banks: 4, LEVTReadPortsPerBank: 2})
	if !a.TryReserve(0) || !a.TryReserve(0) {
		t.Fatal("two single reads must fit in bank 0")
	}
	if a.TryReserve(0) {
		t.Fatal("third read in bank 0 must be rejected")
	}
	// Other banks unaffected.
	if !a.TryReserve(1, 2) {
		t.Fatal("banks 1,2 must grant")
	}
	a.Reset()
	if !a.TryReserve(0) {
		t.Fatal("budget must refresh after Reset")
	}
}

func TestLEVTArbiterAtomicity(t *testing.T) {
	a := NewLEVTArbiter(Config{IntRegs: 256, FPRegs: 256, Banks: 2, LEVTReadPortsPerBank: 2})
	a.TryReserve(0) // bank0: 1 used
	// Request needing 2 ports in bank 0 and 1 in bank 1 must fail
	// without consuming bank 1's port.
	if a.TryReserve(0, 0, 1) {
		t.Fatal("over-budget composite request must fail")
	}
	if !a.TryReserve(1) || !a.TryReserve(1) {
		t.Fatal("bank 1 ports leaked by failed composite request")
	}
}

func TestLEVTArbiterDuplicateBankCounting(t *testing.T) {
	a := NewLEVTArbiter(Config{IntRegs: 256, FPRegs: 256, Banks: 1, LEVTReadPortsPerBank: 3})
	// One µ-op reading two operands from bank 0 plus validation read.
	if !a.TryReserve(0, 0, 0) {
		t.Fatal("3 reads must fit a 3-port bank")
	}
	if a.TryReserve(0) {
		t.Fatal("bank must now be exhausted")
	}
}

func TestPortCostFormula(t *testing.T) {
	// Section 6: baseline 6-issue PRF = 12R/6W; EOLE_4_64 unbanked =
	// 24R/12W is ~4x the area.
	base := PortCost(12, 6)
	eoleNaive := PortCost(24, 12)
	if ratio := float64(eoleNaive) / float64(base); ratio < 3.5 || ratio > 4.5 {
		t.Fatalf("EOLE naive PRF area ratio = %.2f, paper says ~4x", ratio)
	}
}
