package prog

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"eole/internal/isa"
)

// buildLoop returns a program that sums 0..n-1 into r2 then halts.
func buildLoop(n int64) *Program {
	b := NewBuilder("sumloop")
	r1, r2, r3 := isa.IntReg(1), isa.IntReg(2), isa.IntReg(3)
	b.Movi(r1, 0) // i = 0
	b.Movi(r2, 0) // sum = 0
	b.Movi(r3, n) // limit
	b.Label("loop")
	b.Add(r2, r2, r1) // sum += i
	b.Addi(r1, r1, 1) // i++
	b.Blt(r1, r3, "loop")
	b.Halt()
	return b.MustBuild()
}

func TestBuilderLabelsResolve(t *testing.T) {
	p := buildLoop(10)
	idx, ok := p.LabelAddr("loop")
	if !ok || idx != 3 {
		t.Fatalf("LabelAddr(loop) = %d,%v; want 3,true", idx, ok)
	}
	// The branch must point at the label.
	br := p.Code[5]
	if br.Op != isa.OpBlt || br.Target != 3 {
		t.Fatalf("branch = %+v, want blt to 3", br)
	}
}

func TestBuilderUndefinedLabel(t *testing.T) {
	b := NewBuilder("bad")
	b.Jmp("nowhere")
	if _, err := b.Build(); err == nil {
		t.Fatal("expected error for undefined label")
	}
}

func TestBuilderDuplicateLabel(t *testing.T) {
	b := NewBuilder("dup")
	b.Label("x")
	b.Label("x")
	b.Halt()
	if _, err := b.Build(); err == nil {
		t.Fatal("expected error for duplicate label")
	}
}

func TestInterpreterSumLoop(t *testing.T) {
	m := NewMachine(buildLoop(100))
	n := m.Run(1_000_000, nil)
	if !m.Halted() {
		t.Fatal("machine did not halt")
	}
	// 3 setup ops + 100 iterations * 3 ops + 1 halt.
	if want := uint64(3 + 300 + 1); n != want {
		t.Fatalf("executed %d µ-ops, want %d", n, want)
	}
	if got := m.Regs[isa.IntReg(2)]; got != 4950 {
		t.Fatalf("sum = %d, want 4950", got)
	}
}

func TestBranchOutcomesRecorded(t *testing.T) {
	m := NewMachine(buildLoop(3))
	var takens []bool
	m.Run(1_000_000, func(u *MicroOp) bool {
		if u.Op == isa.OpBlt {
			takens = append(takens, u.Taken)
		}
		return true
	})
	want := []bool{true, true, false}
	if len(takens) != len(want) {
		t.Fatalf("saw %d branches, want %d", len(takens), len(want))
	}
	for i := range want {
		if takens[i] != want[i] {
			t.Fatalf("branch %d taken=%v, want %v", i, takens[i], want[i])
		}
	}
}

func TestMemoryReadWrite(t *testing.T) {
	mem := NewMemory()
	if got := mem.Read(0x1000); got != 0 {
		t.Fatalf("unwritten memory = %d, want 0", got)
	}
	mem.Write(0x1000, 42)
	if got := mem.Read(0x1000); got != 42 {
		t.Fatalf("read-after-write = %d, want 42", got)
	}
	// Distinct pages stay distinct.
	mem.Write(0x100000, 7)
	if got := mem.Read(0x1000); got != 42 {
		t.Fatalf("cross-page interference: got %d", got)
	}
	if mem.Footprint() != 2 {
		t.Fatalf("footprint = %d, want 2", mem.Footprint())
	}
}

func TestMemoryProperty(t *testing.T) {
	mem := NewMemory()
	shadow := map[uint64]uint64{}
	f := func(addr, val uint64) bool {
		addr &= 0xFFFFFF8 // keep footprint bounded, 8-aligned
		mem.Write(addr, val)
		shadow[addr&^uint64(7)] = val
		for a, v := range shadow {
			if mem.Read(a) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLoadStoreRoundTrip(t *testing.T) {
	b := NewBuilder("memtest")
	r1, r2, r3 := isa.IntReg(1), isa.IntReg(2), isa.IntReg(3)
	b.Movi(r1, 0x10000)
	b.Movi(r2, 1234)
	b.St(r2, r1, 8)
	b.Ld(r3, r1, 8)
	b.Halt()
	m := NewMachine(b.MustBuild())
	var stAddr, ldAddr, ldVal uint64
	m.Run(100, func(u *MicroOp) bool {
		switch u.Op {
		case isa.OpSt:
			stAddr = u.Addr
		case isa.OpLd:
			ldAddr, ldVal = u.Addr, u.Value
		}
		return true
	})
	if stAddr != 0x10008 || ldAddr != 0x10008 {
		t.Fatalf("addresses st=%#x ld=%#x, want 0x10008", stAddr, ldAddr)
	}
	if ldVal != 1234 || m.Regs[r3] != 1234 {
		t.Fatalf("loaded %d, want 1234", ldVal)
	}
}

func TestCallRet(t *testing.T) {
	b := NewBuilder("callret")
	r1 := isa.IntReg(1)
	b.Movi(r1, 0)
	b.Call("fn")
	b.Addi(r1, r1, 100) // executed after return
	b.Halt()
	b.Label("fn")
	b.Addi(r1, r1, 1)
	b.Ret()
	m := NewMachine(b.MustBuild())
	var callVal uint64
	var retNext uint64
	m.Run(100, func(u *MicroOp) bool {
		if u.Op == isa.OpCall {
			callVal = u.Value
		}
		if u.Op == isa.OpRet {
			retNext = u.NextPC
		}
		return true
	})
	if !m.Halted() {
		t.Fatal("did not halt")
	}
	if got := m.Regs[r1]; got != 101 {
		t.Fatalf("r1 = %d, want 101 (call then fallthrough)", got)
	}
	p := m.Prog
	if callVal != p.PC(2) {
		t.Fatalf("link value = %#x, want %#x", callVal, p.PC(2))
	}
	if retNext != p.PC(2) {
		t.Fatalf("ret NextPC = %#x, want %#x", retNext, p.PC(2))
	}
}

func TestIndirectJr(t *testing.T) {
	b := NewBuilder("jr")
	r1 := isa.IntReg(1)
	b.Movi(r1, int64(CodeBase)+3*4) // address of the halt
	b.Jr(r1)
	b.Addi(r1, r1, 1) // skipped
	b.Halt()
	m := NewMachine(b.MustBuild())
	m.Run(100, nil)
	if !m.Halted() {
		t.Fatal("did not halt")
	}
	if got := m.Regs[r1]; got != CodeBase+12 {
		t.Fatalf("r1 = %#x, want unchanged %#x", got, CodeBase+12)
	}
}

func TestFPArithmetic(t *testing.T) {
	b := NewBuilder("fp")
	f0, f1, f2 := isa.FPReg(0), isa.FPReg(1), isa.FPReg(2)
	b.FAdd(f2, f0, f1)
	b.FMul(f2, f2, f2)
	b.FSqrt(f2, f2)
	b.Halt()
	m := NewMachine(b.MustBuild())
	m.SetFReg(f0, 1.5)
	m.SetFReg(f1, 2.5)
	m.Run(100, nil)
	got := math.Float64frombits(m.Regs[f2])
	if math.Abs(got-4.0) > 1e-12 {
		t.Fatalf("sqrt((1.5+2.5)^2) = %v, want 4", got)
	}
}

func TestDivByZeroDefined(t *testing.T) {
	b := NewBuilder("div0")
	r1, r2, r3 := isa.IntReg(1), isa.IntReg(2), isa.IntReg(3)
	b.Movi(r1, 10)
	b.Movi(r2, 0)
	b.Div(r3, r1, r2)
	b.Rem(r1, r1, r2)
	b.Halt()
	m := NewMachine(b.MustBuild())
	m.Run(100, nil)
	if m.Regs[r3] != ^uint64(0) {
		t.Fatalf("div/0 = %#x, want all-ones", m.Regs[r3])
	}
	if m.Regs[r1] != 10 {
		t.Fatalf("rem/0 = %d, want dividend", m.Regs[r1])
	}
}

func TestFlagsInStream(t *testing.T) {
	b := NewBuilder("flags")
	r1, r2 := isa.IntReg(1), isa.IntReg(2)
	b.Movi(r1, -1)
	b.Movi(r2, 1)
	b.Add(r2, r1, r2) // (-1)+1 = 0: ZF + CF
	b.Halt()
	m := NewMachine(b.MustBuild())
	var flags isa.Flags
	m.Run(100, func(u *MicroOp) bool {
		if u.Op == isa.OpAdd {
			flags = u.Flags
		}
		return true
	})
	if flags&isa.FlagZF == 0 || flags&isa.FlagCF == 0 {
		t.Fatalf("flags = %08b, want ZF|CF", flags)
	}
}

func TestXorshiftDeterministicAndNontrivial(t *testing.T) {
	b := NewBuilder("xs")
	r1, r2 := isa.IntReg(1), isa.IntReg(2)
	b.Movi(r1, 0x9E3779B97F4A7C15>>1)
	for i := 0; i < 4; i++ {
		b.Xorshift(r1, r2)
	}
	b.Halt()
	run := func() uint64 {
		m := NewMachine(b.MustBuild())
		m.Run(1000, nil)
		return m.Regs[r1]
	}
	v1, v2 := run(), run()
	if v1 != v2 {
		t.Fatal("xorshift must be deterministic")
	}
	if v1 == 0x9E3779B97F4A7C15>>1 || v1 == 0 {
		t.Fatalf("xorshift produced trivial value %#x", v1)
	}
}

func TestSeqAndNextPCChain(t *testing.T) {
	m := NewMachine(buildLoop(5))
	var prev *MicroOp
	m.Run(1_000_000, func(u *MicroOp) bool {
		if prev != nil && prev.Op != isa.OpHalt {
			if prev.NextPC != u.PC {
				t.Fatalf("seq %d: NextPC %#x != next op PC %#x", prev.Seq, prev.NextPC, u.PC)
			}
			if u.Seq != prev.Seq+1 {
				t.Fatalf("sequence numbers not contiguous")
			}
		}
		c := *u
		prev = &c
		return true
	})
}

func TestRunStopsOnCallbackFalse(t *testing.T) {
	m := NewMachine(buildLoop(1000))
	n := m.Run(1_000_000, func(u *MicroOp) bool { return u.Seq < 9 })
	if n != 10 {
		t.Fatalf("Run executed %d, want 10", n)
	}
	if m.Halted() {
		t.Fatal("must not be halted")
	}
}

// Run steps every µ-op into one MicroOp, so what it allocates does not
// grow with how many it runs: no step escapes a record of its own to
// the callback.
func TestRunAllocatesNothingPerStep(t *testing.T) {
	var sum uint64
	f := func(u *MicroOp) bool { sum += u.Value; return true }
	allocs := func(n uint64) float64 {
		return testing.AllocsPerRun(5, func() {
			if got := NewMachine(buildLoop(1_000_000)).Run(n, f); got != n {
				t.Fatalf("Run(%d) ran %d µ-ops", n, got)
			}
		})
	}
	if one, many := allocs(1), allocs(100_000); many != one {
		t.Fatalf("Run allocated %v times over 1 µ-op, %v over 100 000", one, many)
	}
}

func TestMachineSource(t *testing.T) {
	m := NewMachine(buildLoop(2))
	src := MachineSource{M: m}
	var u MicroOp
	count := 0
	for src.Next(&u) {
		count++
		if count > 1000 {
			t.Fatal("source did not terminate")
		}
	}
	if !m.Halted() {
		t.Fatal("machine should be halted at stream end")
	}
}

func TestDisasmContainsLabels(t *testing.T) {
	p := buildLoop(2)
	d := p.Disasm()
	if !strings.Contains(d, "loop:") {
		t.Fatalf("disasm missing label:\n%s", d)
	}
	if !strings.Contains(d, "blt") {
		t.Fatalf("disasm missing branch:\n%s", d)
	}
}

func TestPCIndexRoundTrip(t *testing.T) {
	p := buildLoop(2)
	f := func(i uint16) bool {
		idx := int(i) % len(p.Code)
		return p.IndexOf(p.PC(idx)) == idx
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
