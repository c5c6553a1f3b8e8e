package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"eole/internal/cache"
	"eole/internal/config"
	"eole/internal/isa"
	"eole/internal/prog"
	"eole/internal/workload"
)

// The differential wall for the cycle loop. RunContext jumps over
// quiescent cycles; a core advanced by step() alone visits every one.
// Wherever both stop, everything a caller can read off them must be
// equal — there is no knob that turns the jump off, so the reference
// is the loop body itself.

// stepRun is Run without the jump: step until n more µ-ops have
// committed, the source runs dry, or deadlockCycles cycles pass without
// a commit, calling eachCycle (if not nil) after every one. A wedge is
// returned as the message Run panics with.
func stepRun(c *Core, n uint64, eachCycle func()) (wedge string) {
	target := c.stats.Committed + n
	idle := 0
	for c.stats.Committed < target {
		before := c.stats.Committed
		if !c.step() {
			break
		}
		if eachCycle != nil {
			eachCycle()
		}
		if c.stats.Committed != before {
			idle = 0
		} else if idle++; idle > deadlockCycles {
			return fmt.Sprintf("core: %s deadlocked at cycle %d (%d in flight, iq=%d)",
				c.cfg.Label(), c.now, c.count, c.iqCount)
		}
	}
	return ""
}

// jumpRun is Run with a wedge returned as stepRun returns it.
func jumpRun(c *Core, n uint64) (wedge string) {
	defer func() {
		if r := recover(); r != nil {
			wedge = fmt.Sprint(r)
		}
	}()
	c.Run(n)
	return ""
}

// observable renders what the wall compares: the clock, the whole
// Stats struct (so a per-cycle counter added later and not replicated
// by the jump fails here), the reduced machine state, PRF free counts,
// and the cache, DRAM and branch-predictor statistics.
func observable(c *Core) string {
	var b strings.Builder
	fmt.Fprintf(&b, "now=%d\nstats=%+v\n", c.now, c.stats)
	fmt.Fprintf(&b, "state=%+v lq=%d sq=%d\n", c.state(), c.lqCount, c.sqCount)
	for bank := 0; bank < c.prf.Banks(); bank++ {
		fmt.Fprintf(&b, "prf[%d] int=%d fp=%d\n", bank, c.prf.FreeCount(false, bank), c.prf.FreeCount(true, bank))
	}
	for _, l := range []*cache.Cache{c.mem.L1I, c.mem.L1D, c.mem.L2} {
		fmt.Fprintf(&b, "cache acc=%d miss=%d wb=%d merge=%d stall=%d pf=%d\n",
			l.Accesses, l.Misses, l.Writebacks, l.MSHRMerges, l.MSHRStalls, l.Prefetches)
	}
	d := c.mem.Dram
	fmt.Fprintf(&b, "dram r=%d w=%d hit=%d miss=%d confl=%d lat=%d\n",
		d.Reads, d.Writes, d.RowHits, d.RowMisses, d.RowConfl, d.TotalLat)
	u := c.bp
	fmt.Fprintf(&b, "bpred %d %d %d %d %d %d %d %d\n", u.CondBranches, u.CondMispredict,
		u.HighConfCond, u.HighConfWrong, u.IndirectSeen, u.IndirectWrong, u.ReturnsSeen, u.ReturnsWrong)
	return b.String()
}

// pair drives a stepped and a jumping core through the same calls.
type pair struct {
	tb              testing.TB
	stepped, jumped *Core
	total           Stats // everything the jumping core counted, across ResetStats
}

func newPair(tb testing.TB, cfg config.Config, w workload.Workload) *pair {
	return &pair{
		tb:      tb,
		stepped: New(cfg, prog.MachineSource{M: w.NewMachine()}),
		jumped:  New(cfg, prog.MachineSource{M: w.NewMachine()}),
	}
}

// check compares the two cores where both have stopped, and audits each
// (what observable leaves out — the select list, the waiter chains —
// has to be consistent in the core that jumped there, too).
func (p *pair) check(what string) {
	p.tb.Helper()
	if a, b := observable(p.stepped), observable(p.jumped); a != b {
		p.tb.Fatalf("%s: stepped and jumped cores differ\n--- stepped\n%s--- jumped\n%s", what, a, b)
	}
	audit(p.tb, p.stepped)
	audit(p.tb, p.jumped)
	checkAgainstPolling(p.tb, p.jumped)
}

// run advances both cores by n committed µ-ops — the stepped one held
// against the polling oracle at every cycle — and reports whether the
// machine wedged instead, which both loops must report alike, at the
// same cycle.
func (p *pair) run(n uint64) (wedged bool) {
	p.tb.Helper()
	jw := jumpRun(p.jumped, n)
	sw := stepRun(p.stepped, n, func() { checkAgainstPolling(p.tb, p.stepped) })
	if jw != sw {
		p.tb.Fatalf("Run(%d): stepped core reports %q, jumped core %q", n, sw, jw)
	}
	p.check(fmt.Sprintf("after Run(%d)", n))
	return jw != ""
}

func (p *pair) resetStats() {
	p.total.Add(&p.jumped.stats)
	p.stepped.ResetStats()
	p.jumped.ResetStats()
}

// exercise runs the chunks with what callers do between Run calls in
// between: nothing, ResetStats (warm-up → measure), and the sampler's
// window boundary (FlushPipeline → Skip → Warm → ResetStats → Run). It
// reports whether the machine wedged on the way.
func (p *pair) exercise(chunks []uint64) (wedged bool) {
	p.tb.Helper()
	for i, n := range chunks {
		if p.run(n) {
			return true
		}
		switch i % 3 {
		case 1:
			p.resetStats()
		case 2:
			for _, c := range []*Core{p.stepped, p.jumped} {
				c.FlushPipeline()
				c.Skip(777)
				c.Warm(1_501)
			}
			p.resetStats()
			p.check("after the window boundary")
		}
	}
	p.total.Add(&p.jumped.stats)
	return false
}

func mustConfig(tb testing.TB, name string) config.Config {
	tb.Helper()
	cfg, err := config.Named(name)
	if err != nil {
		tb.Fatal(err)
	}
	return cfg
}

func mustWorkload(tb testing.TB, name string) workload.Workload {
	tb.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		tb.Fatal(err)
	}
	return w
}

// Every named configuration on every workload, Run called in odd-sized
// chunks.
func TestStepVsRunNamedMatrix(t *testing.T) {
	chunks := []uint64{2_003, 1_777, 3_331, 1_009, 2_501}
	if testing.Short() {
		chunks = chunks[:3]
	}
	for _, name := range config.KnownNames() {
		cfg := mustConfig(t, name)
		for _, w := range append(workload.All(), mustWorkload(t, "long-dram")) {
			t.Run(name+"/"+w.Name, func(t *testing.T) {
				t.Parallel()
				if newPair(t, cfg, w).exercise(chunks) {
					t.Fatal("the machine wedged")
				}
			})
		}
	}
}

// Configurations bent until each kind of stall fires — every stall is
// a way for a cycle to be idle, so each is a kind of cycle the jump
// must reproduce. A case names the counter it exists for, and fails if
// the run never moved it.
func TestStepVsRunStalls(t *testing.T) {
	for _, tc := range []struct {
		name, base string
		bend       func(cfg *config.Config)
		fired      func(s *Stats) uint64
	}{
		{"PRF at the floor", "EOLE_4_64", func(cfg *config.Config) {
			cfg.PRF.IntRegs = isa.NumIntRegs + cfg.RenameWidth
			cfg.PRF.FPRegs = isa.NumFPRegs + cfg.RenameWidth
		}, func(s *Stats) uint64 { return s.RenameBankStalls }},
		{"PRF small and banked", "EOLE_4_64_4ports_4banks", func(cfg *config.Config) {
			cfg.PRF.IntRegs, cfg.PRF.FPRegs = 64, 64
		}, func(s *Stats) uint64 { return s.RenameBankStalls }},
		{"4 ports 4 banks", "EOLE_4_64_4ports_4banks", func(*config.Config) {},
			func(s *Stats) uint64 { return s.LEVTPortStalls }},
		{"1 port 1 bank", "EOLE_4_64", func(cfg *config.Config) {
			cfg.PRF.LEVTReadPortsPerBank = 1
		}, func(s *Stats) uint64 { return s.LEVTPortStalls }},
		{"2 ports 2 banks", "EOLE_6_64", func(cfg *config.Config) {
			cfg.PRF.Banks, cfg.PRF.LEVTReadPortsPerBank = 2, 2
		}, func(s *Stats) uint64 { return s.LEVTPortStalls }},
		{"LE width 1", "EOLE_4_64", func(cfg *config.Config) {
			cfg.LEWidth = 1
		}, func(s *Stats) uint64 { return s.LateALU }},
		{"IQ 8", "EOLE_4_64", func(cfg *config.Config) {
			cfg.IQSize = 8
		}, func(s *Stats) uint64 { return s.IQFullStalls }},
		{"IQ 1", "EOLE_4_64", func(cfg *config.Config) {
			cfg.IQSize = 1 // every wakeup finds the select list empty
		}, func(s *Stats) uint64 { return s.IQFullStalls }},
		{"IQ as large as the ROB", "Baseline_6_64", func(cfg *config.Config) {
			cfg.IQSize = cfg.ROBSize // the whole window can wait on chains
		}, func(s *Stats) uint64 { return s.ROBFullStalls }},
		{"ROB 32", "Baseline_VP_6_64", func(cfg *config.Config) {
			cfg.ROBSize, cfg.IQSize = 32, 32
		}, func(s *Stats) uint64 { return s.ROBFullStalls }},
		{"LQ SQ 4", "EOLE_4_64", func(cfg *config.Config) {
			cfg.LQSize, cfg.SQSize = 4, 4
		}, func(s *Stats) uint64 { return s.CommitStopHead }},
		{"LE returns", "EOLE_4_64", func(cfg *config.Config) {
			cfg.LEReturns = true
		}, func(s *Stats) uint64 { return s.LateBranches }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			cfg := mustConfig(t, tc.base)
			tc.bend(&cfg)
			cfg.Name = "" // no longer the machine its name says
			if err := cfg.Validate(); err != nil {
				t.Fatal(err)
			}
			var fired uint64
			for _, wl := range []string{"gzip", "mcf", "namd", "art", "bzip2", "vortex", "long-dram"} {
				p := newPair(t, cfg, mustWorkload(t, wl))
				if p.exercise([]uint64{4_001, 2_999, 1_234, 3_001}) {
					t.Fatalf("%s: the machine wedged", wl)
				}
				fired += tc.fired(&p.total)
			}
			if fired == 0 {
				t.Error("the counter this case is for never moved")
			}
		})
	}
}

// The one clock comparison that can flip while rename is stalled:
// eeStageFor sees a producer through the EE bypass for one cycle after
// its rename. Here u = addi r6, r5 reaches rename the cycle after its
// producer p = movi r5 took the last physical register, behind an
// issue queue two dependent divides keep full for another twenty
// cycles, with the source dry. That cycle u classifies as
// early-executable, needs no queue entry and stalls on the PRF; from
// the next cycle on it is an ordinary µ-op and stalls on the queue. A
// jump from the first of those cycles would charge them all to the PRF.
func TestStepVsRunEEBypassExpiry(t *testing.T) {
	cfg := mustConfig(t, "EOLE_4_64")
	cfg.Name = ""
	cfg.FetchWidth = 1 // µ-ops reach rename one per cycle
	cfg.IQSize = 2
	cfg.PRF.IntRegs = isa.NumIntRegs + cfg.RenameWidth
	b := prog.NewBuilder("ee-bypass-expiry")
	for r := 0; r < isa.NumIntRegs; r++ {
		b.Movi(isa.IntReg(r), int64(r+2)) // every register holds a mapping: 8 left
	}
	b.Movi(isa.IntReg(0), 0)
	b.Div(isa.IntReg(3), isa.IntReg(1), isa.IntReg(2)) // issues at once, 25 cycles at the window head
	b.Div(isa.IntReg(4), isa.IntReg(3), isa.IntReg(2)) // waits in the queue for it
	b.Add(isa.IntReg(7), isa.IntReg(4), isa.IntReg(4)) // and this for that: queue full
	for r := 8; r < 12; r++ {
		b.Movi(isa.IntReg(r), 1) // early-executed, but holding registers behind the divide
	}
	b.Movi(isa.IntReg(5), 1)                // p: the last register
	b.Addi(isa.IntReg(6), isa.IntReg(5), 1) // u
	b.Halt()
	p := newPair(t, cfg, workload.Workload{Name: "ee-bypass-expiry", Program: b.MustBuild()})
	if p.exercise([]uint64{1_000}) {
		t.Fatal("the machine wedged")
	}
	if p.total.RenameBankStalls == 0 || p.total.IQFullStalls < 10 {
		t.Fatalf("u should stall once on the PRF and then on the issue queue; stalls: %d PRF, %d IQ",
			p.total.RenameBankStalls, p.total.IQFullStalls)
	}
}

// A jumped run emits the events of a stepped run, one for one: the
// cycles it jumps over are exactly those in which nothing happens.
func TestStepVsRunPipetrace(t *testing.T) {
	for _, wl := range []string{"mcf", "namd"} {
		p := newPair(t, mustConfig(t, "EOLE_4_64"), mustWorkload(t, wl))
		var stepped, jumped eventLog
		p.stepped.SetTracer(&stepped)
		p.jumped.SetTracer(&jumped)
		p.run(15_000)
		if len(jumped) < 15_000 || !reflect.DeepEqual(stepped, jumped) {
			t.Fatalf("%s: %d events stepped, %d jumped, or they differ", wl, len(stepped), len(jumped))
		}
	}
}

type event struct {
	seq, pc uint64
	op      isa.Opcode
	stage   Stage
	cycle   uint64
}

type eventLog []event

func (l *eventLog) Window() (uint64, uint64) { return 0, math.MaxUint64 }

func (l *eventLog) Event(seq, pc uint64, op isa.Opcode, stage Stage, cycle uint64) {
	*l = append(*l, event{seq, pc, op, stage, cycle})
}

// FuzzStepVsRun is the wall over machines nobody named: a base
// configuration, (knob, value) byte pairs bending it, a workload and
// chunk sizes. Configurations Validate rejects are skipped; none it
// accepts may tell the two loops apart, in what they compute or — a
// banked PRF a few registers above Validate's floor can fill one bank
// with committed state and wedge — in where they give up.
func FuzzStepVsRun(f *testing.F) {
	f.Add(uint8(0), []byte{}, uint8(0), []byte{40, 7})                               // Baseline_6_64, gzip
	f.Add(uint8(6), []byte{5, 0, 6, 0}, uint8(11), []byte{90, 33, 61})               // EOLE_4_64 with the PRF at its floor, mcf
	f.Add(uint8(10), []byte{8, 1, 7, 2}, uint8(4), []byte{120, 45})                  // 1 LE/VT port on each of 4 banks, art
	f.Add(uint8(6), []byte{1, 7, 2, 24, 3, 3, 4, 3}, uint8(21), []byte{77, 200, 13}) // IQ 8, ROB 32, LQ/SQ 4, long-dram
	f.Add(uint8(5), []byte{9, 1, 10, 1, 0, 0}, uint8(9), []byte{255, 1, 100})        // LE width 1, LE returns, 1-issue, gcc
	f.Add(uint8(1), []byte{11, 3, 12, 1, 13, 0, 14, 0}, uint8(5), []byte{60, 60})    // 1-wide with a short front end, crafty
	f.Add(uint8(10), []byte{5, 0, 6, 0, 1, 0}, uint8(13), []byte{130})               // 4 banks of 10 registers: wedges on namd
	names := config.KnownNames()
	wls := append(workload.All(), workload.LongAll()...)
	f.Fuzz(func(t *testing.T, base uint8, knobs []byte, wl uint8, chunks []byte) {
		cfg := mustConfig(t, names[int(base)%len(names)])
		for i := 0; i+1 < len(knobs) && i < 16; i += 2 {
			bend(&cfg, knobs[i], int(knobs[i+1]))
		}
		cfg.Name = ""
		if cfg.Validate() != nil {
			t.Skip()
		}
		if len(chunks) > 5 {
			chunks = chunks[:5]
		}
		sizes := make([]uint64, len(chunks))
		for i, b := range chunks {
			sizes[i] = 1 + 23*uint64(b)
		}
		newPair(t, cfg, wls[int(wl)%len(wls)]).exercise(sizes)
	})
}

// bend sets one structural field of cfg from a fuzzed value, within
// the range where Validate has something to say either way.
func bend(cfg *config.Config, knob uint8, v int) {
	switch knob % 19 {
	case 0:
		cfg.IssueWidth = 1 + v%8
	case 1:
		cfg.IQSize = 1 + v%96
	case 2:
		cfg.ROBSize = 8 + v
	case 3:
		cfg.LQSize = 1 + v%48
	case 4:
		cfg.SQSize = 1 + v%48
	case 5:
		cfg.PRF.IntRegs = isa.NumIntRegs + cfg.RenameWidth + v
	case 6:
		cfg.PRF.FPRegs = isa.NumFPRegs + cfg.RenameWidth + v
	case 7:
		cfg.PRF.Banks = 1 << (v % 4)
	case 8:
		cfg.PRF.LEVTReadPortsPerBank = v % 5
	case 9:
		cfg.LEWidth = v % 9
	case 10:
		cfg.LEReturns = v%2 == 1
	case 11:
		cfg.FetchToRenameLag = v % 16
		cfg.FetchQueueSize = cfg.FetchWidth * (cfg.FetchToRenameLag + 1)
	case 12:
		cfg.RenameWidth = 1 + v%8
		if cfg.CommitWidth > cfg.RenameWidth {
			cfg.CommitWidth = cfg.RenameWidth
		}
	case 13:
		cfg.FetchWidth = 1 + v%8
	case 14:
		cfg.CommitWidth = 1 + v%8
	case 15:
		cfg.NumMemPorts = 1 + v%4
	case 16:
		cfg.NumALU = 1 + v%6
	case 17:
		cfg.NumMulDiv, cfg.NumFPMulDiv = 1+v%4, 1+v%4
	case 18:
		cfg.MaxTakenPerFetch = 1 + v%3
	}
}

// A wedged machine is reported at the cycle a stepped run reports it:
// the jump counts the cycles it skips against the detector's budget
// and stops where the budget does.
func TestDeadlockReportedAtTheSteppedCycle(t *testing.T) {
	wedged := func() *Core {
		c := newTestCore(t, "EOLE_4_64", "gzip")
		// Step to a window head that still waits in the issue queue,
		// then take it off the select list as if a producer had yet to
		// issue — on a chain nobody will walk. It can never issue, so it
		// never completes and nothing behind it commits.
		for i := 0; ; i++ {
			if i > 100_000 {
				t.Fatal("no unissued window head in 100000 cycles")
			}
			c.step()
			if c.count > 0 && c.at(c.headSeq).inIQ && i > 2_000 {
				break
			}
		}
		if c.iq[0].seq != c.headSeq {
			t.Fatalf("oldest select-list entry is seq %d, window head %d", c.iq[0].seq, c.headSeq)
		}
		c.iq = c.iq[:copy(c.iq, c.iq[1:])]
		c.at(c.headSeq).pending = 1
		return c
	}

	ref, c := wedged(), wedged()
	want, got := stepRun(ref, 1_000, nil), jumpRun(c, 1_000)
	if want == "" || got != want {
		t.Fatalf("Run on a wedged core: panic %q, stepping reports %q", got, want)
	}
	if a, b := observable(ref), observable(c); a != b {
		t.Fatalf("state at the report differs\n--- stepped\n%s--- jumped\n%s", a, b)
	}
}

// cancelAt cancels a context when the core commits a given µ-op: a
// cancellation that lands mid-run at a reproducible point.
type cancelAt struct {
	core   *Core
	seq    uint64
	cancel context.CancelFunc
	sawAt  uint64 // the core's committed count when the cancel was issued
}

func (c *cancelAt) Window() (uint64, uint64) { return c.seq, 1 }

func (c *cancelAt) Event(seq, _ uint64, _ isa.Opcode, stage Stage, _ uint64) {
	if stage == StageCommit && seq == c.seq {
		c.sawAt = c.core.stats.Committed
		c.cancel()
	}
}

// ctxCheckInterval counts loop iterations, and an iteration can cover
// hundreds of idle cycles: a canceled run returns within one interval
// of iterations whatever simulated time that spans, stops between
// cycles, and resumed ends where an uninterrupted run ends.
func TestRunContextCancelMidRunAndResume(t *testing.T) {
	const warmup, measure = 20_000, 40_000
	whole := newTestCore(t, "EOLE_4_64", "mcf")
	whole.Run(warmup)
	whole.Run(measure)

	c := newTestCore(t, "EOLE_4_64", "mcf")
	c.Run(warmup)

	// A context that is already canceled stops the loop at its first
	// checkpoint, ctxCheckInterval-1 iterations in. On mcf those span
	// many times as many cycles.
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	target := c.stats.Committed + measure
	cyclesBefore := c.stats.Cycles
	if _, err := c.RunContext(canceled, measure); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext(canceled) = %v, want context.Canceled", err)
	}
	if got := c.stats.Cycles - cyclesBefore; got < 4*ctxCheckInterval {
		t.Errorf("%d iterations advanced %d cycles; mcf should jump over most of its cycles", ctxCheckInterval-1, got)
	}

	// Canceled from inside the loop, as a µ-op commits.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tr := &cancelAt{core: c, seq: c.headSeq + 10_000, cancel: cancel}
	c.SetTracer(tr)
	_, err := c.RunContext(ctx, target-c.stats.Committed)
	c.SetTracer(nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext = %v, want context.Canceled", err)
	}
	if tr.sawAt == 0 || c.stats.Committed >= target {
		t.Fatalf("the run was not cut short (canceled at %d, committed %d of %d)", tr.sawAt, c.stats.Committed, target)
	}
	// Each iteration steps one cycle, which commits at most CommitWidth.
	if over := c.stats.Committed - tr.sawAt; over > uint64(ctxCheckInterval*c.cfg.CommitWidth) {
		t.Errorf("%d µ-ops committed after the cancel: more than one check interval of iterations", over)
	}

	if _, err := c.RunContext(context.Background(), target-c.stats.Committed); err != nil {
		t.Fatal(err)
	}
	if a, b := observable(whole), observable(c); a != b {
		t.Fatalf("interrupted and resumed run differs from an uninterrupted one\n--- whole\n%s--- resumed\n%s", a, b)
	}
}
