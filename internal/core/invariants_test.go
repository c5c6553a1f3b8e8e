package core

import (
	"testing"

	"eole/internal/config"
	"eole/internal/isa"
	"eole/internal/prog"
	"eole/internal/workload"
)

// audit checks the core's structural invariants. It is called between
// cycles, so every derived count must agree with the ring's contents.
func audit(t testing.TB, c *Core) {
	t.Helper()
	// The in-flight ring: window, front-end queue, pending µ-op and
	// replay region are consecutive seq ranges from headSeq, each µ-op
	// in the slot its seq names, and the lot fits.
	pending := 0
	if c.pendingValid {
		pending = 1
	}
	inFlight := c.count + c.fqLen + pending + c.replayLen
	if inFlight > len(c.ring) || inFlight > c.cfg.ROBSize+c.cfg.FetchQueueSize+1 {
		t.Fatalf("%d+%d+%d+%d µ-ops in flight, ring holds %d, bound is ROB %d + fetch queue %d + 1",
			c.count, c.fqLen, pending, c.replayLen, len(c.ring), c.cfg.ROBSize, c.cfg.FetchQueueSize)
	}
	if c.fqLen > c.cfg.FetchQueueSize {
		t.Fatalf("front-end queue holds %d, capacity %d", c.fqLen, c.cfg.FetchQueueSize)
	}
	for i := 0; i < inFlight; i++ {
		seq := c.headSeq + uint64(i)
		u := c.at(seq)
		if u.Seq != seq {
			t.Fatalf("ring slot of seq %d (offset %d from headSeq) holds seq %d", seq, i, u.Seq)
		}
		// Beyond the window nothing is renamed, so nothing holds a
		// register, a queue entry or a result: a queued µ-op carries
		// what fetch wrote, one waiting to be fetched (again) nothing.
		want := unfetched()
		switch {
		case i < c.count:
			if !u.renamed || !u.fetched {
				t.Fatalf("window µ-op %d: renamed=%v fetched=%v", seq, u.renamed, u.fetched)
			}
			continue
		case i < c.count+c.fqLen:
			want.fetched, want.fetchCycle = true, u.fetchCycle
			want.availCycle, want.readyCycle = never, never
		}
		if u.pipeState != want {
			t.Fatalf("µ-op %d at offset %d (window %d, front-end queue %d, pending %d, replay %d) holds pipeline state:\n have %+v\n want %+v",
				seq, i, c.count, c.fqLen, pending, c.replayLen, u.pipeState, want)
		}
	}

	iq, lq, sq := 0, 0, 0
	allocInt := make([]int, c.cfg.PRF.Banks)
	allocFP := make([]int, c.cfg.PRF.Banks)
	for i := 0; i < c.count; i++ {
		u := c.at(c.headSeq + uint64(i))
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
	auditWakeup(t, c)
	if lq != c.lqCount || sq != c.sqCount {
		t.Fatalf("lq/sq = %d/%d, window says %d/%d", c.lqCount, c.sqCount, lq, sq)
	}
	if c.iqCount > c.cfg.IQSize || c.lqCount > c.cfg.LQSize || c.sqCount > c.cfg.SQSize {
		t.Fatal("queue occupancy exceeds capacity")
	}
	// The store queue: the ring from sqHead holds exactly the window's
	// stores, oldest first, each with its address word — what issueLoad
	// searches instead of the window.
	if len(c.sq) < c.cfg.SQSize || c.sqHead < 0 || c.sqHead >= len(c.sq) {
		t.Fatalf("store queue ring of %d entries, head %d, for SQ %d", len(c.sq), c.sqHead, c.cfg.SQSize)
	}
	k := 0
	for i := 0; i < c.count; i++ {
		u := c.at(c.headSeq + uint64(i))
		if u.Class != isa.ClassStore {
			continue
		}
		if k >= c.sqCount {
			t.Fatalf("store %d in the window is beyond the store queue's %d entries", u.Seq, c.sqCount)
		}
		if e := c.sq[(c.sqHead+k)&(len(c.sq)-1)]; e.seq != u.Seq || e.word != u.Addr>>3 {
			t.Fatalf("store queue entry %d from the head is {seq %d, word %#x}, the window's store %d is {seq %d, word %#x}",
				k, e.seq, e.word, k, u.Seq, u.Addr>>3)
		}
		k++
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
	stepAudited(t, c, cycles)
	return c
}

func stepAudited(t *testing.T, c *Core, cycles int) {
	t.Helper()
	for i := 0; i < cycles; i++ {
		c.step()
		checkAgainstPolling(t, c)
		if i%7 == 0 { // the audit allocates and walks chains — sample
			audit(t, c)
		}
	}
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

// long-dram's compute phase under EOLE_4_64 squashes every ~25 µ-ops
// and refetches 14 of every 15 fetches (see alloc_test.go), so the
// ring's regions trade places constantly: window and front-end queue
// into the replay region at each squash — some while a taken branch is
// pending — and back out of it, a fetch group at a time.
func TestInvariantsSquashStorm(t *testing.T) {
	c := steadyCoreAt(t, "EOLE_4_64", "long-dram", 1_000_000)
	before := *c.Stats()
	stepAudited(t, c, 60_000)
	st := c.Stats()
	if n := st.VPSquashes - before.VPSquashes; n < 1_000 {
		t.Fatalf("%d squashes in the audited run, want >= 1000", n)
	}
	if st.Replayed-before.Replayed < 2*(st.Fetched-before.Fetched)/3 {
		t.Fatalf("%d of %d fetches were refetches: not a squash storm",
			st.Replayed-before.Replayed, st.Fetched-before.Fetched)
	}
}

// The sampler's window boundary makes the source's seqs jump behind an
// empty pipeline (Skip and Warm consume µ-ops the ring never sees), so
// headSeq has to be picked up again from the first µ-op fetched after
// (audit holds every in-flight µ-op's Seq against the slot it is in).
func TestInvariantsAcrossWindowBoundaries(t *testing.T) {
	c := runAudited(t, "EOLE_4_64", "namd", 3_000)
	for round := 0; round < 3; round++ {
		c.FlushPipeline()
		audit(t, c)
		if got := c.Skip(777) + c.Warm(1_501); got != 777+1_501 {
			t.Fatalf("fast-forward consumed %d µ-ops", got)
		}
		audit(t, c)
		committed := c.stats.Committed
		stepAudited(t, c, 3_000)
		if c.stats.Committed == committed {
			t.Fatal("nothing committed after the window boundary")
		}
	}
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
