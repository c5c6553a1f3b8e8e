package prog

import (
	"fmt"
	"iter"
	"math"
	"sync/atomic"

	"eole/internal/isa"
)

// MicroOp is one dynamic instruction as produced by the functional
// interpreter: the static µ-op plus everything the timing model and
// the predictors need to know about this execution of it.
type MicroOp struct {
	Seq   uint64 // dynamic sequence number, starting at 0
	Index int    // static instruction index
	PC    uint64 // virtual PC

	Op   isa.Opcode
	Dst  isa.Reg
	Src1 isa.Reg
	Src2 isa.Reg

	Value uint64    // result written to Dst (if Dst is valid)
	Flags isa.Flags // architectural flags produced (if Op.WritesFlags)

	Addr      uint64 // effective address for loads/stores
	StoreData uint64 // value written by stores

	Taken  bool   // branch direction (branches only)
	NextPC uint64 // PC of the next dynamic instruction
}

// FetchOp is what a timing model reads of a dynamic µ-op: a MicroOp
// less its value, flags, store data, next PC and static index, which
// only the predictors read. It is 40 bytes to a MicroOp's 80, and what
// a core's ring slot holds. A trace's shared chunks do not hold it: they
// keep the dynamic half, packed (the static index and direction in 4
// bytes, and the address of a load or store), and a replaying core
// rebuilds the rest from its program's FetchTemplate.
type FetchOp struct {
	Seq  uint64
	PC   uint64
	Addr uint64 // effective address for loads/stores

	Dst, Src1, Src2 isa.Reg
	Op              isa.Opcode
	Class           isa.Class // Op.Class()
	Taken           bool
}

// Fetch returns u's fetch record.
func (u *MicroOp) Fetch() FetchOp {
	return FetchOp{Seq: u.Seq, PC: u.PC, Addr: u.Addr, Dst: u.Dst, Src1: u.Src1, Src2: u.Src2,
		Op: u.Op, Class: u.Op.Class(), Taken: u.Taken}
}

// Class returns the execution class of the µ-op.
func (u *MicroOp) Class() isa.Class { return u.Op.Class() }

// IsBranch reports whether the µ-op redirects control flow.
func (u *MicroOp) IsBranch() bool { return u.Op.Class().IsBranch() }

// VPEligible reports value-prediction eligibility (see isa.Inst).
func (u *MicroOp) VPEligible() bool {
	return u.Dst.Valid() && !u.Op.Class().IsBranch()
}

// pageBits/PageWords define the sparse memory page geometry: 512-byte
// pages of 64 8-byte words. A page is what an image builds around the
// first word a machine touches, and what a fork copies on its first
// store there, so a small page keeps a scattered walk (mcf's chase
// reads 16 bytes of a node) from building memory it never reads; 512
// bytes is also an exact allocator size class.
const (
	pageBits  = 6
	PageWords = 1 << pageBits
	pageMask  = PageWords - 1
	pageShift = pageBits + 3 // byte address → page key
)

type page = [PageWords]uint64

// pageTable maps page keys to pages: the pages written word by word,
// and runs of pages declared by Memory.Fill, each built the first time
// it is needed. No key is in both.
type pageTable struct {
	written map[uint64]*page
	runs    []*run
}

// run is the whole pages of one Fill: page first+i holds the fill's
// words start+i*PageWords onwards. A page's slot is set once, by
// whichever builder wins the compare-and-swap; builders that race make
// the same bytes, so either result serves.
type run struct {
	first uint64
	start int
	fill  func(first int, words []uint64)
	slots []atomic.Pointer[page]
}

// slot returns the run's slot for key, nil when key is outside it.
func (r *run) slot(key uint64) *atomic.Pointer[page] {
	if i := key - r.first; i < uint64(len(r.slots)) {
		return &r.slots[i]
	}
	return nil
}

// get returns the page at key, building it if a run declares it; nil
// when the table has none.
func (t *pageTable) get(key uint64) *page {
	for _, r := range t.runs {
		if s := r.slot(key); s != nil {
			if p := s.Load(); p != nil {
				return p
			}
			p := new(page)
			r.fill(r.start+int(key-r.first)*PageWords, p[:])
			if s.CompareAndSwap(nil, p) {
				return p
			}
			return s.Load()
		}
	}
	return t.written[key]
}

// has reports whether the table has a page at key — only a built one
// when built is set — without building it.
func (t *pageTable) has(key uint64, built bool) bool {
	for _, r := range t.runs {
		if s := r.slot(key); s != nil {
			return !built || s.Load() != nil
		}
	}
	return t.written[key] != nil
}

// keys yields the key of every page in the table, only of the built
// ones when built is set.
func (t *pageTable) keys(built bool) iter.Seq[uint64] {
	return func(yield func(uint64) bool) {
		for key := range t.written {
			if !yield(key) {
				return
			}
		}
		for _, r := range t.runs {
			for i := range r.slots {
				if (!built || r.slots[i].Load() != nil) && !yield(r.first+uint64(i)) {
					return
				}
			}
		}
	}
}

// Memory is a sparse 64-bit word-addressable memory. Addresses are byte
// addresses; accesses are 8-byte (the IR has a single access size,
// which keeps the cache model focused on locality rather than
// sub-word handling).
//
// A Memory may sit on top of an Image (see Image.NewMachine): pages it
// has not written are read straight out of the image, which any number
// of sibling memories share, and the first store to such a page copies
// it into the memory's own. A Memory never writes an image page.
type Memory struct {
	// base is the image this memory was forked from, nil for a memory
	// that started empty. It is held as the *Image, not as its page
	// table, so that whoever tracks the image weakly (internal/workload)
	// sees it alive for exactly as long as some memory reads through
	// it.
	base *Image
	// own holds the private pages: everything ever written, each a copy
	// of the image page it shadows or zero-filled at first touch, and
	// the runs Fill declared on this memory, whose pages are built into
	// it and written in place.
	own pageTable
	// lazy makes Fill declare whole pages instead of writing them. It
	// is set only on the memory an image's Setup runs on.
	lazy bool

	// One-entry page cache: workload kernels access runs of the same
	// page (streams, stack frames), so most Read/Write calls skip the
	// table lookups entirely. lastKey is ^0 when empty (no page has
	// that key: addresses shift right by pageShift). lastShared marks a
	// cached image page, which Read may use and Write must replace first.
	lastKey    uint64
	lastPage   *page
	lastShared bool
}

// NewMemory returns an empty memory.
func NewMemory() *Memory {
	return &Memory{own: pageTable{written: map[uint64]*page{}}, lastKey: ^uint64(0)}
}

// Read returns the word at addr (byte address, rounded down to 8).
func (m *Memory) Read(addr uint64) uint64 {
	key := addr >> pageShift
	p := m.lastPage
	if key != m.lastKey {
		if p = m.readPage(key); p == nil {
			return 0
		}
	}
	return p[(addr>>3)&pageMask]
}

// Write stores the word at addr.
func (m *Memory) Write(addr, val uint64) {
	key := addr >> pageShift
	p := m.lastPage
	if key != m.lastKey || m.lastShared {
		p = m.writePage(key)
	}
	p[(addr>>3)&pageMask] = val
}

// Fill sets the n words from addr (rounded down to 8) to what fill
// produces: fill(first, words) sets words[j] to word first+j of the n.
// Outside an image's Setup it writes every word now. In Setup (see
// NewImage) it writes only the partial pages at either end and
// declares the whole pages between: each is built by fill the first
// time a machine of the image reads or writes it, once however many
// machines race to it. fill must therefore be a pure function of its
// arguments, safe to call concurrently for as long as the image lives.
// Declared pages must not overlap an earlier Fill's.
func (m *Memory) Fill(addr uint64, n int, fill func(first int, words []uint64)) {
	addr &^= 7
	for i := 0; i < n; {
		a := addr + uint64(i)*8
		k := min(n-i, PageWords-int(a>>3)&pageMask)
		if m.lazy && k == PageWords {
			k = (n - i) / PageWords * PageWords
			m.declare(a>>pageShift, i, k/PageWords, fill)
		} else {
			lo := int(a>>3) & pageMask
			fill(i, m.writePage(a >> pageShift)[lo:lo+k])
		}
		i += k
	}
}

// declare adds the run of n pages from key first, holding fill's words
// from start on. It replaces the written pages it covers.
func (m *Memory) declare(first uint64, start, n int, fill func(int, []uint64)) {
	for _, r := range m.own.runs {
		if first < r.first+uint64(len(r.slots)) && r.first < first+uint64(n) {
			panic(fmt.Sprintf("prog: Fill at %#x overlaps an earlier Fill", first<<pageShift))
		}
	}
	for key := range m.own.written {
		if key-first < uint64(n) {
			delete(m.own.written, key) // every word of it is filled
		}
	}
	m.own.runs = append(m.own.runs, &run{first: first, start: start, fill: fill, slots: make([]atomic.Pointer[page], n)})
	m.lastKey, m.lastPage = ^uint64(0), nil
}

// readPage finds the page visible at key — private first, then the
// image's — and caches it; nil when neither has one.
func (m *Memory) readPage(key uint64) *page {
	p, shared := m.own.get(key), false
	if p == nil && m.base != nil {
		p, shared = m.base.pages.get(key), true
	}
	if p != nil {
		m.lastKey, m.lastPage, m.lastShared = key, p, shared
	}
	return p
}

// writePage returns the private page at key, creating it on first
// write as a copy of the image's page (zeroed when there is none).
func (m *Memory) writePage(key uint64) *page {
	p := m.own.get(key)
	if p == nil {
		p = new(page)
		if m.base != nil {
			if b := m.base.pages.get(key); b != nil {
				*p = *b
			}
		}
		m.own.written[key] = p
	}
	m.lastKey, m.lastPage, m.lastShared = key, p, false
	return p
}

// Footprint returns the number of distinct pages visible: the image's
// pages, built or only declared, plus the private ones that shadow none
// of them.
func (m *Memory) Footprint() int { return m.distinct(false) }

// Resident returns the number of distinct pages that exist in memory:
// Footprint less the declared pages that no machine has touched yet.
func (m *Memory) Resident() int { return m.distinct(true) }

func (m *Memory) distinct(built bool) int {
	n := 0
	for key := range m.own.keys(built) {
		if m.base == nil || !m.base.pages.has(key, built) {
			n++
		}
	}
	if m.base != nil {
		for range m.base.pages.keys(built) {
			n++
		}
	}
	return n
}

// Image is a machine's initial state — architectural registers and
// memory pages — frozen so that any number of machines can start from
// it without rebuilding or copying it. Machines created by NewMachine
// share the image's pages read-only (copy-on-first-write, see Memory)
// and keep the image reachable for as long as they live; once the last
// one is gone nothing else in this package holds it. The whole pages of
// Setup's Fills are built the first time any machine reads one or
// copies it on a store, so an image holds Setup's other writes and the
// pages its machines have touched (Resident counts them). An Image is
// safe for concurrent use.
type Image struct {
	prog  *Program
	regs  [isa.NumArchRegs]uint64
	pages pageTable
}

// NewImage runs setup on a scratch machine at the entry of p and
// freezes the registers and memory it leaves behind. setup must not
// retain the machine: its pages, and the fills it declared, belong to
// the image afterwards.
func NewImage(p *Program, setup func(*Machine)) *Image {
	m := NewMachine(p)
	m.Mem.lazy = true
	setup(m)
	return &Image{prog: p, regs: m.Regs, pages: m.Mem.own}
}

// NewMachine returns a machine at the entry of the image's program,
// holding the image's registers and a copy-on-write view of its
// memory.
func (im *Image) NewMachine() *Machine {
	mem := NewMemory()
	mem.base = im
	return &Machine{Prog: im.prog, Regs: im.regs, Mem: mem}
}

// Machine executes a Program functionally, one µ-op per Step.
type Machine struct {
	Prog *Program
	Regs [isa.NumArchRegs]uint64
	Mem  *Memory

	pc     int // static instruction index
	seq    uint64
	halted bool
}

// NewMachine returns a Machine at the entry of p with zeroed state.
func NewMachine(p *Program) *Machine {
	return &Machine{Prog: p, Mem: NewMemory()}
}

// Halted reports whether the program has executed OpHalt.
func (m *Machine) Halted() bool { return m.halted }

// Seq returns the number of µ-ops executed so far.
func (m *Machine) Seq() uint64 { return m.seq }

// SetReg initializes an architectural register (for workload setup).
func (m *Machine) SetReg(r isa.Reg, v uint64) { m.Regs[r] = v }

// SetFReg initializes an FP register from a float64.
func (m *Machine) SetFReg(r isa.Reg, v float64) { m.Regs[r] = math.Float64bits(v) }

func f64(v uint64) float64    { return math.Float64frombits(v) }
func bitsOf(f float64) uint64 { return math.Float64bits(f) }

// Step executes one µ-op and returns its dynamic record. ok is false
// once the machine has halted.
func (m *Machine) Step() (MicroOp, bool) {
	var u MicroOp
	ok := m.StepInto(&u)
	return u, ok
}

// StepInto executes one µ-op directly into *u, sparing the caller a
// copy of the record (the batch source fills its buffer this way):
// every field is assigned where it lies, the ones the opcode does not
// produce to zero. *u is untouched when the machine has halted.
func (m *Machine) StepInto(u *MicroOp) bool {
	if m.halted {
		return false
	}
	if m.pc < 0 || m.pc >= len(m.Prog.Code) {
		panic(fmt.Sprintf("prog: %s: pc %d out of range", m.Prog.Name, m.pc))
	}
	u.Seq = m.seq
	m.seq++
	m.pc = m.Prog.Exec(m.pc, &m.Regs, m.Mem, u)
	switch u.Op {
	case isa.OpSt:
		m.Mem.Write(u.Addr, u.StoreData)
	case isa.OpHalt:
		m.halted = true
	}
	return true
}

// Loads supplies the values Exec's loads read: a machine's Memory, or
// a recorded trace's log of them.
type Loads interface {
	Read(addr uint64) uint64
}

// Exec is the ISA's semantics, the one place they are written: it
// executes static instruction i over the register file regs, writing
// the result register, and fills every field of *u but Seq, the ones
// the opcode does not produce with zero. A load's value is mem's Read
// of its address; a store only computes its address and data, and the
// caller writes them. It returns the next instruction's index, i
// itself after a halt. The interpreter (Machine.StepInto) and the
// trace decoder both run it, and differ only in their Loads.
func (p *Program) Exec(i int, regs *[isa.NumArchRegs]uint64, mem Loads, u *MicroOp) int {
	in := &p.Code[i]
	u.Index, u.PC = i, p.PC(i)
	u.Op, u.Dst, u.Src1, u.Src2 = in.Op, in.Dst, in.Src1, in.Src2
	u.Value, u.Flags, u.Addr, u.StoreData, u.Taken = 0, 0, 0, 0, false // NextPC: set on every way out

	var a, bv uint64
	if in.Src1.Valid() {
		a = regs[in.Src1]
	}
	if in.Src2.Valid() {
		bv = regs[in.Src2]
	}
	next := i + 1

	switch in.Op {
	case isa.OpAdd:
		u.Value = a + bv
	case isa.OpSub:
		u.Value = a - bv
	case isa.OpAddi:
		u.Value = a + uint64(in.Imm)
	case isa.OpAnd:
		u.Value = a & bv
	case isa.OpAndi:
		u.Value = a & uint64(in.Imm)
	case isa.OpOr:
		u.Value = a | bv
	case isa.OpOri:
		u.Value = a | uint64(in.Imm)
	case isa.OpXor:
		u.Value = a ^ bv
	case isa.OpXori:
		u.Value = a ^ uint64(in.Imm)
	case isa.OpShl:
		u.Value = a << (bv & 63)
	case isa.OpShli:
		u.Value = a << (uint64(in.Imm) & 63)
	case isa.OpShr:
		u.Value = a >> (bv & 63)
	case isa.OpShri:
		u.Value = a >> (uint64(in.Imm) & 63)
	case isa.OpSar:
		u.Value = uint64(int64(a) >> (bv & 63))
	case isa.OpMovi:
		u.Value = uint64(in.Imm)
	case isa.OpMov:
		u.Value = a
	case isa.OpSltu:
		if a < bv {
			u.Value = 1
		}
	case isa.OpSlt:
		if int64(a) < int64(bv) {
			u.Value = 1
		}
	case isa.OpMul:
		u.Value = a * bv
	case isa.OpDiv:
		if bv == 0 {
			u.Value = ^uint64(0)
		} else {
			u.Value = a / bv
		}
	case isa.OpRem:
		if bv == 0 {
			u.Value = a
		} else {
			u.Value = a % bv
		}
	case isa.OpFAdd:
		u.Value = bitsOf(f64(a) + f64(bv))
	case isa.OpFSub:
		u.Value = bitsOf(f64(a) - f64(bv))
	case isa.OpFMul:
		u.Value = bitsOf(f64(a) * f64(bv))
	case isa.OpFDiv:
		u.Value = bitsOf(f64(a) / f64(bv))
	case isa.OpFSqrt:
		u.Value = bitsOf(math.Sqrt(f64(a)))
	case isa.OpFCmp:
		if f64(a) < f64(bv) {
			u.Value = 1
		}
	case isa.OpFCvt:
		u.Value = bitsOf(float64(int64(a)))
	case isa.OpLd:
		u.Addr = a + uint64(in.Imm)
		u.Value = mem.Read(u.Addr)
	case isa.OpSt:
		u.Addr = a + uint64(in.Imm)
		u.StoreData = bv
	case isa.OpBeq:
		u.Taken = a == bv
	case isa.OpBne:
		u.Taken = a != bv
	case isa.OpBlt:
		u.Taken = int64(a) < int64(bv)
	case isa.OpBge:
		u.Taken = int64(a) >= int64(bv)
	case isa.OpBltu:
		u.Taken = a < bv
	case isa.OpBeqz:
		u.Taken = a == 0
	case isa.OpBnez:
		u.Taken = a != 0
	case isa.OpJmp:
		u.Taken = true
		next = in.Target
	case isa.OpCall:
		u.Taken = true
		u.Value = p.PC(i + 1)
		next = in.Target
	case isa.OpRet, isa.OpJr:
		u.Taken = true
		next = p.IndexOf(a)
	case isa.OpHalt:
		u.NextPC = u.PC
		return i
	default:
		panic(fmt.Sprintf("prog: unimplemented opcode %v", in.Op))
	}

	if in.Op.Class() == isa.ClassBranch && u.Taken {
		next = in.Target
	}
	if in.Dst.Valid() {
		regs[in.Dst] = u.Value
	}
	if in.Op.WritesFlags() {
		imm := uint64(in.Imm)
		if !in.Op.HasImm() {
			imm = bv
		}
		u.Flags = isa.TrueFlags(in.Op, a, imm, u.Value)
	}
	u.NextPC = p.PC(next)
	return next
}

// Run executes up to n µ-ops, invoking f for each. It stops early if
// the machine halts or f returns false. It returns the number of µ-ops
// executed. Every µ-op is stepped into one MicroOp, so the *MicroOp f
// gets is valid only during the call.
func (m *Machine) Run(n uint64, f func(*MicroOp) bool) uint64 {
	var u MicroOp
	var done uint64
	for done < n && m.StepInto(&u) {
		done++
		if f != nil && !f(&u) {
			break
		}
	}
	return done
}

// Source is a pull-based µ-op stream. Next fills *u with the next
// dynamic µ-op and reports whether one was available. NextBatch is the
// bulk path of a consumer that drains the stream, the cycle-level core:
// it fills dst with the next 1..len(dst) µ-ops — what as many Next
// calls would yield — and returns them, dst's prefix, empty only at the
// end of the stream (a short batch does not mean the end). A batch
// costs one dynamic dispatch, where a Next per µ-op costs one each and
// makes the callee-provided *MicroOp escape.
type Source interface {
	Next(u *MicroOp) bool
	NextBatch(dst []MicroOp) []MicroOp
}

// Skipper is the optional seek of a Source: Skip discards the next n
// µ-ops (fewer only when the stream ends first) without producing
// them and returns how many it discarded. A source implements it when
// it can do that for less than producing them costs — a recorded trace
// moves a position; the interpreter cannot, and does not.
type Skipper interface {
	Skip(n uint64) uint64
}

// MachineSource wraps a Machine as a Source.
type MachineSource struct{ M *Machine }

// Next implements Source.
func (s MachineSource) Next(u *MicroOp) bool {
	return s.M.StepInto(u)
}

// NextBatch implements Source: it steps the interpreter directly
// into dst, skipping the per-µ-op interface hop and record copy.
func (s MachineSource) NextBatch(dst []MicroOp) []MicroOp {
	n := 0
	for n < len(dst) && s.M.StepInto(&dst[n]) {
		n++
	}
	return dst[:n]
}
