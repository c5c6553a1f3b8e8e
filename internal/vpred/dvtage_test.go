package vpred

import (
	"testing"

	"eole/internal/bpred"
)

func TestDVTAGEStorageSavings(t *testing.T) {
	// The point of the differential design: tagged entries shrink from
	// 64-bit values to 16-bit deltas.
	v := NewVTAGE(DefaultVTAGEConfig(), bpred.NewHistory())
	d := NewDVTAGE(DefaultVTAGEConfig(), 16, bpred.NewHistory())
	if d.StorageBits() >= v.StorageBits() {
		t.Fatalf("D-VTAGE (%d bits) must be smaller than VTAGE (%d bits)",
			d.StorageBits(), v.StorageBits())
	}
	// Savings should be substantial (tagged arrays dominate VTAGE).
	if ratio := float64(d.StorageBits()) / float64(v.StorageBits()); ratio > 0.85 {
		t.Errorf("savings ratio %.2f, want < 0.85", ratio)
	}
}

func TestDVTAGELearnsConstant(t *testing.T) {
	d := NewDVTAGE(DefaultVTAGEConfig(), 16, bpred.NewHistory())
	used, correct := trainLoop(d, 0x400000, 3000, 1500, func(i int) uint64 { return 0xDEAD })
	if used < 1300 || correct != used {
		t.Fatalf("constant: used=%d correct=%d of 1500", used, correct)
	}
}

func TestDVTAGELearnsBranchCorrelatedDeltas(t *testing.T) {
	// Value = base ± small delta depending on the preceding branch:
	// the last-value base plus history-selected deltas covers this.
	h := bpred.NewHistory()
	d := NewDVTAGE(DefaultVTAGEConfig(), 16, h)
	pc := uint64(0x400100)
	rng := uint64(77)
	var used, correct int
	const n, tail = 30000, 6000
	base := uint64(1000)
	prev := base
	for i := 0; i < n; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		taken := rng&0x10000 != 0
		h.Push(taken)
		// The next value is the previous value plus a branch-dependent
		// delta: exactly the D-VTAGE pattern (base tracks last value).
		val := prev + 3
		if taken {
			val = prev + 11
		}
		p := d.Lookup(pc)
		if i >= n-tail && p.Use {
			used++
			if p.Value == val {
				correct++
			}
		}
		d.Train(pc, val)
		prev = val
	}
	if used < tail/3 {
		t.Fatalf("D-VTAGE used only %d/%d on branch-correlated deltas", used, tail)
	}
	if correct != used {
		t.Fatalf("D-VTAGE used wrong predictions: %d/%d", correct, used)
	}
}

func TestDVTAGEHugeDeltasFallToBase(t *testing.T) {
	// Deltas outside the 16-bit budget cannot be learned by tagged
	// components; used-prediction accuracy must still hold (the FPC
	// gate keeps wrong entries unconfident).
	h := bpred.NewHistory()
	d := NewDVTAGE(DefaultVTAGEConfig(), 8, h)
	rng := uint64(5)
	var usedWrong int
	for i := 0; i < 20000; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		h.Push(rng&4 != 0)
		val := rng // huge random jumps
		p := d.Lookup(0x400200)
		if p.Use && p.Value != val {
			usedWrong++
		}
		d.Train(0x400200, val)
	}
	if usedWrong > 40 {
		t.Fatalf("D-VTAGE used %d wrong predictions on random values", usedWrong)
	}
}

func TestDVTAGEInFamily(t *testing.T) {
	p, ok := NewByName("D-VTAGE", bpred.NewHistory())
	if !ok || p.Name() != "D-VTAGE" {
		t.Fatal("D-VTAGE missing from the family registry")
	}
}
