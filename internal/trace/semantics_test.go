package trace

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"

	"eole/internal/isa"
	"eole/internal/prog"
)

// TestOneSemantics: the interpreter and the trace decoder run one
// function, prog.Program.Exec, and differ only in where a load's value
// comes from. For every isa opcode, over random registers, operands,
// immediates and load values, a prog.Machine whose memory holds the
// value and a decoder whose payload logs it must produce the same
// MicroOp and leave the same register file, the decoder consuming its
// payload exactly. An opcode Exec does not handle fails here.
func TestOneSemantics(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 47))
	reg := func() isa.Reg { return isa.Reg(rng.IntN(isa.NumArchRegs)) }
	ops := 0
	for op := isa.Opcode(0); !strings.HasPrefix(op.String(), "Opcode("); op++ {
		ops++
		for trial := 0; trial < 200; trial++ {
			in := isa.Inst{Op: op, Dst: reg(), Src1: reg(), Src2: reg(), Imm: int64(rng.Uint64()), Target: rng.IntN(2)}
			if trial%4 == 0 {
				// No destination, and an immediate as small as a
				// memory displacement is.
				in.Dst = isa.RegNone
				in.Imm = rng.Int64N(1<<12) - 1<<11
			}
			b := prog.NewBuilder("one-op")
			b.Emit(in)
			b.Halt()
			p := b.MustBuild()

			m := prog.NewMachine(p)
			for r := range m.Regs {
				switch rng.IntN(3) {
				case 0:
					m.Regs[r] = rng.Uint64()
				case 1:
					m.Regs[r] = rng.Uint64N(64) // shift counts, small operands, equal pairs
				default:
					m.Regs[r] = prog.CodeBase + 4*rng.Uint64N(2) // indirect targets in the program
				}
			}
			payload := appendRegs(nil, &m.Regs)
			if op.Class() == isa.ClassLoad {
				v := rng.Uint64()
				m.Mem.Write(m.Regs[in.Src1]+uint64(in.Imm), v)
				payload = binary.AppendUvarint(payload, v)
			}
			d := decoder{prog: p, payload: payload, fresh: true}

			var want, got prog.MicroOp
			var ok bool
			if err := catch(func() { want, ok = m.Step() }); err != nil || !ok {
				t.Fatalf("%v: the interpreter fails on %v: %v", op, in, err)
			}
			if err := catch(func() { ok = d.next(&got) }); err != nil || !ok {
				t.Fatalf("%v: the decoder fails on %v: %v (%v)", op, in, err, d.err)
			}
			if got != want || d.regs != m.Regs {
				t.Fatalf("%v: %v decodes to\n %+v\nwhere the interpreter steps\n %+v\n(register files equal: %v)",
					op, in, got, want, d.regs == m.Regs)
			}
			if d.pos != len(payload) {
				t.Fatalf("%v: the decoder read %d of %d payload bytes", op, d.pos, len(payload))
			}
		}
	}
	if ops <= int(isa.OpHalt) {
		t.Fatalf("walked %d opcodes, stopping short of halt", ops)
	}
}

// catch runs f and returns what it panicked with, if it did.
func catch(f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	f()
	return nil
}
