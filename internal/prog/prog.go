// Package prog provides a small assembler-style program builder and a
// functional interpreter for the µ-op IR of internal/isa.
//
// The EOLE reproduction is trace-driven: a workload is a Program that
// the Machine executes functionally, producing the dynamic µ-op stream
// (register values, effective addresses, branch outcomes, flag
// results). The timing model in internal/pipeline consumes that stream
// and never re-executes anything, mirroring how trace-driven simulators
// substitute for gem5's execute-in-execute model.
package prog

import (
	"fmt"
	"sort"

	"eole/internal/isa"
)

// CodeBase is the virtual address of instruction 0. Instruction i has
// PC = CodeBase + 4*i, so PCs look like x86_64 text addresses and
// predictor index hashing behaves realistically.
const CodeBase uint64 = 0x400000

// Program is an executable list of static instructions.
type Program struct {
	Name   string
	Code   []isa.Inst
	labels map[string]int
	fetch  []FetchOp // see FetchTemplate
}

// FetchTemplate returns the static half of every instruction's fetch
// record, by static index: PC, registers, opcode and class, with Seq,
// Addr and Taken zero. A dynamic µ-op's record is its instruction's
// entry plus those three (what a trace's shared chunks keep of it). It
// is built once, with the program, and shared by every reader, which
// must not write to it.
func (p *Program) FetchTemplate() []FetchOp { return p.fetch }

// PC returns the virtual program counter of static instruction i.
func (p *Program) PC(i int) uint64 { return CodeBase + uint64(i)*4 }

// IndexOf returns the static instruction index of the given PC.
func (p *Program) IndexOf(pc uint64) int { return int((pc - CodeBase) / 4) }

// LabelAddr returns the static index of a label defined during building.
func (p *Program) LabelAddr(name string) (int, bool) {
	i, ok := p.labels[name]
	return i, ok
}

// Disasm renders the program as readable assembly with labels.
func (p *Program) Disasm() string {
	byIndex := map[int][]string{}
	for name, idx := range p.labels {
		byIndex[idx] = append(byIndex[idx], name)
	}
	out := ""
	for i, in := range p.Code {
		names := byIndex[i]
		sort.Strings(names)
		for _, n := range names {
			out += n + ":\n"
		}
		out += fmt.Sprintf("  %4d: %s\n", i, in)
	}
	return out
}

// Builder assembles a Program with forward label references.
type Builder struct {
	name   string
	code   []isa.Inst
	labels map[string]int
	fixups []fixup
	errs   []error
}

type fixup struct {
	index int
	label string
}

// NewBuilder returns an empty Builder for a program with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, labels: map[string]int{}}
}

// Label defines a label at the current position.
func (b *Builder) Label(name string) {
	if _, dup := b.labels[name]; dup {
		b.errs = append(b.errs, fmt.Errorf("prog: duplicate label %q", name))
		return
	}
	b.labels[name] = len(b.code)
}

// Len returns the number of instructions emitted so far.
func (b *Builder) Len() int { return len(b.code) }

// Emit appends a raw instruction.
func (b *Builder) Emit(in isa.Inst) { b.code = append(b.code, in) }

func (b *Builder) emitBranch(op isa.Opcode, s1, s2 isa.Reg, label string) {
	b.fixups = append(b.fixups, fixup{len(b.code), label})
	b.code = append(b.code, isa.Inst{Op: op, Dst: isa.RegNone, Src1: s1, Src2: s2})
}

// Three-operand integer ALU ops.
func (b *Builder) Add(d, s1, s2 isa.Reg) { b.Emit(isa.Inst{Op: isa.OpAdd, Dst: d, Src1: s1, Src2: s2}) }
func (b *Builder) Sub(d, s1, s2 isa.Reg) { b.Emit(isa.Inst{Op: isa.OpSub, Dst: d, Src1: s1, Src2: s2}) }
func (b *Builder) And(d, s1, s2 isa.Reg) { b.Emit(isa.Inst{Op: isa.OpAnd, Dst: d, Src1: s1, Src2: s2}) }
func (b *Builder) Or(d, s1, s2 isa.Reg)  { b.Emit(isa.Inst{Op: isa.OpOr, Dst: d, Src1: s1, Src2: s2}) }
func (b *Builder) Xor(d, s1, s2 isa.Reg) { b.Emit(isa.Inst{Op: isa.OpXor, Dst: d, Src1: s1, Src2: s2}) }
func (b *Builder) Shl(d, s1, s2 isa.Reg) { b.Emit(isa.Inst{Op: isa.OpShl, Dst: d, Src1: s1, Src2: s2}) }
func (b *Builder) Shr(d, s1, s2 isa.Reg) { b.Emit(isa.Inst{Op: isa.OpShr, Dst: d, Src1: s1, Src2: s2}) }
func (b *Builder) Sar(d, s1, s2 isa.Reg) { b.Emit(isa.Inst{Op: isa.OpSar, Dst: d, Src1: s1, Src2: s2}) }
func (b *Builder) Sltu(d, s1, s2 isa.Reg) {
	b.Emit(isa.Inst{Op: isa.OpSltu, Dst: d, Src1: s1, Src2: s2})
}
func (b *Builder) Slt(d, s1, s2 isa.Reg) { b.Emit(isa.Inst{Op: isa.OpSlt, Dst: d, Src1: s1, Src2: s2}) }

// Immediate-form ALU ops.
func (b *Builder) Addi(d, s isa.Reg, imm int64) {
	b.Emit(isa.Inst{Op: isa.OpAddi, Dst: d, Src1: s, Src2: isa.RegNone, Imm: imm})
}
func (b *Builder) Andi(d, s isa.Reg, imm int64) {
	b.Emit(isa.Inst{Op: isa.OpAndi, Dst: d, Src1: s, Src2: isa.RegNone, Imm: imm})
}
func (b *Builder) Ori(d, s isa.Reg, imm int64) {
	b.Emit(isa.Inst{Op: isa.OpOri, Dst: d, Src1: s, Src2: isa.RegNone, Imm: imm})
}
func (b *Builder) Xori(d, s isa.Reg, imm int64) {
	b.Emit(isa.Inst{Op: isa.OpXori, Dst: d, Src1: s, Src2: isa.RegNone, Imm: imm})
}
func (b *Builder) Shli(d, s isa.Reg, imm int64) {
	b.Emit(isa.Inst{Op: isa.OpShli, Dst: d, Src1: s, Src2: isa.RegNone, Imm: imm})
}
func (b *Builder) Shri(d, s isa.Reg, imm int64) {
	b.Emit(isa.Inst{Op: isa.OpShri, Dst: d, Src1: s, Src2: isa.RegNone, Imm: imm})
}
func (b *Builder) Movi(d isa.Reg, imm int64) {
	b.Emit(isa.Inst{Op: isa.OpMovi, Dst: d, Src1: isa.RegNone, Src2: isa.RegNone, Imm: imm})
}
func (b *Builder) Mov(d, s isa.Reg) {
	b.Emit(isa.Inst{Op: isa.OpMov, Dst: d, Src1: s, Src2: isa.RegNone})
}

// Multi-cycle integer ops.
func (b *Builder) Mul(d, s1, s2 isa.Reg) { b.Emit(isa.Inst{Op: isa.OpMul, Dst: d, Src1: s1, Src2: s2}) }
func (b *Builder) Div(d, s1, s2 isa.Reg) { b.Emit(isa.Inst{Op: isa.OpDiv, Dst: d, Src1: s1, Src2: s2}) }
func (b *Builder) Rem(d, s1, s2 isa.Reg) { b.Emit(isa.Inst{Op: isa.OpRem, Dst: d, Src1: s1, Src2: s2}) }

// Floating-point ops (registers hold float64 bit patterns).
func (b *Builder) FAdd(d, s1, s2 isa.Reg) {
	b.Emit(isa.Inst{Op: isa.OpFAdd, Dst: d, Src1: s1, Src2: s2})
}
func (b *Builder) FSub(d, s1, s2 isa.Reg) {
	b.Emit(isa.Inst{Op: isa.OpFSub, Dst: d, Src1: s1, Src2: s2})
}
func (b *Builder) FMul(d, s1, s2 isa.Reg) {
	b.Emit(isa.Inst{Op: isa.OpFMul, Dst: d, Src1: s1, Src2: s2})
}
func (b *Builder) FDiv(d, s1, s2 isa.Reg) {
	b.Emit(isa.Inst{Op: isa.OpFDiv, Dst: d, Src1: s1, Src2: s2})
}
func (b *Builder) FSqrt(d, s isa.Reg) {
	b.Emit(isa.Inst{Op: isa.OpFSqrt, Dst: d, Src1: s, Src2: isa.RegNone})
}
func (b *Builder) FCmp(d, s1, s2 isa.Reg) {
	b.Emit(isa.Inst{Op: isa.OpFCmp, Dst: d, Src1: s1, Src2: s2})
}
func (b *Builder) FCvt(d, s isa.Reg) {
	b.Emit(isa.Inst{Op: isa.OpFCvt, Dst: d, Src1: s, Src2: isa.RegNone})
}

// Memory ops. Effective address = base + disp.
func (b *Builder) Ld(d, base isa.Reg, disp int64) {
	b.Emit(isa.Inst{Op: isa.OpLd, Dst: d, Src1: base, Src2: isa.RegNone, Imm: disp})
}
func (b *Builder) St(val, base isa.Reg, disp int64) {
	b.Emit(isa.Inst{Op: isa.OpSt, Dst: isa.RegNone, Src1: base, Src2: val, Imm: disp})
}

// Control flow.
func (b *Builder) Beq(s1, s2 isa.Reg, label string)  { b.emitBranch(isa.OpBeq, s1, s2, label) }
func (b *Builder) Bne(s1, s2 isa.Reg, label string)  { b.emitBranch(isa.OpBne, s1, s2, label) }
func (b *Builder) Blt(s1, s2 isa.Reg, label string)  { b.emitBranch(isa.OpBlt, s1, s2, label) }
func (b *Builder) Bge(s1, s2 isa.Reg, label string)  { b.emitBranch(isa.OpBge, s1, s2, label) }
func (b *Builder) Bltu(s1, s2 isa.Reg, label string) { b.emitBranch(isa.OpBltu, s1, s2, label) }
func (b *Builder) Beqz(s isa.Reg, label string)      { b.emitBranch(isa.OpBeqz, s, isa.RegNone, label) }
func (b *Builder) Bnez(s isa.Reg, label string)      { b.emitBranch(isa.OpBnez, s, isa.RegNone, label) }

func (b *Builder) Jmp(label string) {
	b.fixups = append(b.fixups, fixup{len(b.code), label})
	b.code = append(b.code, isa.Inst{Op: isa.OpJmp, Dst: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone})
}

// Call emits a direct call that writes the return address to LinkReg.
func (b *Builder) Call(label string) {
	b.fixups = append(b.fixups, fixup{len(b.code), label})
	b.code = append(b.code, isa.Inst{Op: isa.OpCall, Dst: isa.LinkReg, Src1: isa.RegNone, Src2: isa.RegNone})
}

// Ret emits an indirect jump through LinkReg.
func (b *Builder) Ret() {
	b.Emit(isa.Inst{Op: isa.OpRet, Dst: isa.RegNone, Src1: isa.LinkReg, Src2: isa.RegNone})
}

// Jr emits an indirect jump through the given register.
func (b *Builder) Jr(s isa.Reg) {
	b.Emit(isa.Inst{Op: isa.OpJr, Dst: isa.RegNone, Src1: s, Src2: isa.RegNone})
}

// Halt stops the interpreter.
func (b *Builder) Halt() {
	b.Emit(isa.Inst{Op: isa.OpHalt, Dst: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone})
}

// Xorshift emits a 3-op xorshift64 PRNG step on reg, using tmp as
// scratch. This lets kernels generate data-dependent randomness inside
// the IR, the way real benchmarks compute hashes and RNGs.
func (b *Builder) Xorshift(reg, tmp isa.Reg) {
	b.Shli(tmp, reg, 13)
	b.Xor(reg, reg, tmp)
	b.Shri(tmp, reg, 7)
	b.Xor(reg, reg, tmp)
	b.Shli(tmp, reg, 17)
	b.Xor(reg, reg, tmp)
}

// Build resolves labels and returns the program.
func (b *Builder) Build() (*Program, error) {
	for _, f := range b.fixups {
		idx, ok := b.labels[f.label]
		if !ok {
			b.errs = append(b.errs, fmt.Errorf("prog: undefined label %q", f.label))
			continue
		}
		b.code[f.index].Target = idx
	}
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	for i, in := range b.code {
		if in.Class().IsBranch() && !in.Class().IsIndirect() && in.Op != isa.OpHalt {
			if in.Target < 0 || in.Target >= len(b.code) {
				return nil, fmt.Errorf("prog: instruction %d (%v) branches out of range", i, in)
			}
		}
	}
	labels := make(map[string]int, len(b.labels))
	for k, v := range b.labels {
		labels[k] = v
	}
	p := &Program{Name: b.name, Code: b.code, labels: labels, fetch: make([]FetchOp, len(b.code))}
	for i, in := range p.Code {
		p.fetch[i] = FetchOp{PC: p.PC(i), Dst: in.Dst, Src1: in.Src1, Src2: in.Src2, Op: in.Op, Class: in.Class()}
	}
	return p, nil
}

// MustBuild is Build that panics on error, for static kernels.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
