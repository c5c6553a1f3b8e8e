package core

import (
	"testing"

	"eole/internal/config"
	"eole/internal/isa"
	"eole/internal/prog"
	"eole/internal/workload"
)

// audit checks the core's structural invariants. It is called between
// cycles, so every derived count must agree with the window contents.
func audit(t *testing.T, c *Core) {
	t.Helper()
	mask := len(c.window) - 1
	iq, lq, sq := 0, 0, 0
	allocInt := make([]int, c.cfg.PRF.Banks)
	allocFP := make([]int, c.cfg.PRF.Banks)
	prevSeq := uint64(0)
	for i := 0; i < c.count; i++ {
		u := &c.window[(c.head+i)&mask]
		if i > 0 && u.Seq != prevSeq+1 {
			t.Fatalf("window seqs not contiguous at offset %d: %d after %d", i, u.Seq, prevSeq)
		}
		prevSeq = u.Seq
		if u.inIQ {
			iq++
		}
		switch u.Op.Class() {
		case isa.ClassLoad:
			lq++
		case isa.ClassStore:
			sq++
		}
		if u.allocBank >= 0 {
			if u.allocFP {
				allocFP[u.allocBank]++
			} else {
				allocInt[u.allocBank]++
			}
		}
		if u.inIQ && u.issued {
			t.Fatal("µ-op both in IQ and issued")
		}
		if u.earlyDone && (u.late || u.inIQ) {
			t.Fatal("early-executed µ-op also queued")
		}
	}
	if iq != c.iqCount {
		t.Fatalf("iqCount=%d, window says %d", c.iqCount, iq)
	}
	// The issue queue holds exactly the window's inIQ µ-ops, oldest
	// first: as many entries as the window counts, strictly increasing
	// seqs (so none twice), each naming a live, unissued, inIQ µ-op.
	if len(c.iq) != c.iqCount {
		t.Fatalf("issue queue holds %d entries, iqCount=%d", len(c.iq), c.iqCount)
	}
	if cap(c.iq) != c.cfg.IQSize {
		t.Fatalf("issue queue capacity %d, want IQSize %d: the queue was reallocated", cap(c.iq), c.cfg.IQSize)
	}
	for i, e := range c.iq {
		if i > 0 && e.seq <= c.iq[i-1].seq {
			t.Fatalf("issue queue not age-ordered at %d: seq %d after %d", i, e.seq, c.iq[i-1].seq)
		}
		if !c.inWindow(e.seq) {
			t.Fatalf("issue queue entry %d (seq %d) is outside the window", i, e.seq)
		}
		if u := c.at(e.seq); !u.inIQ || u.issued {
			t.Fatalf("issue queue entry %d (seq %d): inIQ=%v issued=%v", i, e.seq, u.inIQ, u.issued)
		}
	}
	if lq != c.lqCount || sq != c.sqCount {
		t.Fatalf("lq/sq = %d/%d, window says %d/%d", c.lqCount, c.sqCount, lq, sq)
	}
	if c.iqCount > c.cfg.IQSize || c.lqCount > c.cfg.LQSize || c.sqCount > c.cfg.SQSize {
		t.Fatal("queue occupancy exceeds capacity")
	}
	if c.count > c.cfg.ROBSize {
		t.Fatalf("ROB occupancy %d exceeds %d", c.count, c.cfg.ROBSize)
	}
	// Physical registers: in-flight allocations never exceed the
	// registers the free list has handed out.
	for b := 0; b < c.cfg.PRF.Banks; b++ {
		perBankInt := c.cfg.PRF.IntRegs / c.cfg.PRF.Banks
		perBankFP := c.cfg.PRF.FPRegs / c.cfg.PRF.Banks
		outInt := perBankInt - c.prf.FreeCount(false, b)
		outFP := perBankFP - c.prf.FreeCount(true, b)
		if allocInt[b] > outInt {
			t.Fatalf("bank %d: %d in-flight INT allocations but only %d outstanding",
				b, allocInt[b], outInt)
		}
		if allocFP[b] > outFP {
			t.Fatalf("bank %d: %d in-flight FP allocations but only %d outstanding",
				b, allocFP[b], outFP)
		}
	}
	// RAT entries must reference live producers with matching dest.
	for r := range c.rat {
		e := c.rat[r]
		if !e.has {
			continue
		}
		if !c.inWindow(e.seq) {
			t.Fatalf("RAT[%v] points at seq %d outside the window", isa.Reg(r), e.seq)
		}
		if p := c.at(e.seq); p.Dst != isa.Reg(r) {
			t.Fatalf("RAT[%v] points at producer of %v", isa.Reg(r), p.Dst)
		}
	}
}

// runAudited single-steps a configuration over a workload, auditing
// invariants every cycle.
func runAudited(t *testing.T, cfgName, wl string, cycles int) *Core {
	t.Helper()
	cfg, err := config.Named(cfgName)
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.ByName(wl)
	if err != nil {
		t.Fatal(err)
	}
	c := New(cfg, prog.MachineSource{M: w.NewMachine()})
	for i := 0; i < cycles; i++ {
		c.step()
		if i%7 == 0 { // auditing every cycle is O(window) — sample
			audit(t, c)
		}
	}
	return c
}

func TestInvariantsBaseline(t *testing.T) {
	runAudited(t, "Baseline_6_64", "gzip", 4_000)
}

func TestInvariantsEOLEWithSquashes(t *testing.T) {
	// namd produces value-misprediction squashes; the audit must hold
	// across them (RAT rebuild, free-list rollback).
	c := runAudited(t, "EOLE_6_64", "namd", 12_000)
	if c.stats.VPSquashes == 0 {
		t.Skip("no squashes encountered in this window; invariant run still passed")
	}
}

func TestInvariantsBankedPorts(t *testing.T) {
	runAudited(t, "EOLE_4_64_4ports_4banks", "art", 8_000)
}

func TestInvariantsMemoryViolations(t *testing.T) {
	// bzip2's histogram read-modify-write triggers Store Sets traffic
	// and (early on) violations with squashes.
	c := runAudited(t, "Baseline_VP_6_64", "bzip2", 10_000)
	_ = c
}

func TestSquashRestoresPRFExactly(t *testing.T) {
	// Drain a machine to idle and verify all physical registers are
	// either free or retained by committed architectural state.
	cfg, _ := config.Named("EOLE_4_64")
	b := prog.NewBuilder("drain")
	r1 := isa.IntReg(1)
	b.Movi(r1, 1)
	for i := 0; i < 200; i++ {
		b.Addi(r1, r1, 1)
	}
	b.Halt()
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	c := New(cfg, prog.MachineSource{M: prog.NewMachine(p)})
	c.Run(1_000_000)
	if c.count != 0 {
		t.Fatalf("window not drained: %d", c.count)
	}
	// Each architectural register holds at most one committed mapping;
	// everything else must be back on the free lists.
	free := c.prf.TotalFree(false)
	held := 0
	for r := 0; r < isa.NumIntRegs; r++ {
		if c.commitB[r].has {
			held++
		}
	}
	if free+held != cfg.PRF.IntRegs {
		t.Fatalf("INT registers leaked: free=%d held=%d total=%d",
			free, held, cfg.PRF.IntRegs)
	}
}
