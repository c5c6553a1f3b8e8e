package prog_test

import (
	"reflect"
	"testing"

	"eole/internal/isa"
	"eole/internal/prog"
	"eole/internal/workload"
)

// The detailed core drains its source exclusively through NextBatch.
// This property test pins the batched path to the one-at-a-time path:
// for any batch size, the concatenation of NextBatch's batches must be
// µ-op-for-µ-op identical to repeated Next calls on an identical
// machine, each batch 1..len(dst) long until the empty one that ends
// the stream, which must come exactly where Next runs dry.
func TestMachineSourceBatchEqualsStep(t *testing.T) {
	const total = 50_000
	for _, w := range workload.All() {
		for _, batch := range []int{1, 3, 7, 256} {
			ref := prog.MachineSource{M: w.NewMachine()}
			got := prog.MachineSource{M: w.NewMachine()}

			buf := make([]prog.MicroOp, batch)
			var refU prog.MicroOp
			seen := 0
			for seen < total {
				b := got.NextBatch(buf)
				if len(b) > batch {
					t.Fatalf("%s batch=%d: NextBatch returned %d µ-ops", w.Name, batch, len(b))
				}
				for i := range b {
					if !ref.Next(&refU) {
						t.Fatalf("%s batch=%d: Next dry at µ-op %d but NextBatch produced one", w.Name, batch, seen+i)
					}
					if b[i] != refU {
						t.Fatalf("%s batch=%d: µ-op %d mismatch\n batch: %+v\n  step: %+v", w.Name, batch, seen+i, b[i], refU)
					}
				}
				seen += len(b)
				if len(b) == 0 {
					if ref.Next(&refU) {
						t.Fatalf("%s batch=%d: NextBatch dry at µ-op %d but Next produced one", w.Name, batch, seen)
					}
					break
				}
			}
		}
	}
}

// StepInto assigns its record field by field, so a reused slot (the
// core's batch buffer, a trace recorder's) must come out as a fresh
// one does whatever it held: every field is poisoned by reflection
// before each step — one added to MicroOp later included — and the
// result held against Step's, which starts from the zero value.
func TestStepIntoOverwritesEveryField(t *testing.T) {
	var dirty prog.MicroOp
	poison := func() {
		v := reflect.ValueOf(&dirty).Elem()
		for i := 0; i < v.NumField(); i++ {
			switch f := v.Field(i); f.Kind() {
			case reflect.Bool:
				f.SetBool(true)
			case reflect.Int, reflect.Int16:
				f.SetInt(0x5A5A)
			case reflect.Uint8, reflect.Uint64:
				f.SetUint(0xA5)
			default:
				t.Fatalf("MicroOp.%s is a %s: teach the test to poison it", v.Type().Field(i).Name, f.Kind())
			}
		}
	}
	for _, w := range workload.All() {
		ref, got := w.NewMachine(), w.NewMachine()
		for i := 0; i < 20_000; i++ {
			poison()
			want, ok := ref.Step()
			if got.StepInto(&dirty) != ok {
				t.Fatalf("%s µ-op %d: StepInto and Step disagree on halting", w.Name, i)
			}
			if !ok {
				break
			}
			if dirty != want {
				t.Fatalf("%s µ-op %d: a poisoned record came out as\n %+v\nwant\n %+v", w.Name, i, dirty, want)
			}
		}
	}
}

// Fetch copies every field a FetchOp shares with its MicroOp, by name
// (one added to FetchOp later included), and derives Class from Op.
func TestFetchCopiesTheSharedFields(t *testing.T) {
	m := workload.All()[0].NewMachine()
	var u prog.MicroOp
	for i := 0; i < 5_000 && m.StepInto(&u); i++ {
		f := u.Fetch()
		if f.Class != u.Op.Class() {
			t.Fatalf("µ-op %d: Class %v, Op.Class() %v", i, f.Class, u.Op.Class())
		}
		fv, uv := reflect.ValueOf(f), reflect.ValueOf(u)
		for j := 0; j < fv.NumField(); j++ {
			name := fv.Type().Field(j).Name
			if name == "Class" {
				continue
			}
			if w := uv.FieldByName(name); !w.IsValid() || w.Interface() != fv.Field(j).Interface() {
				t.Fatalf("µ-op %d: FetchOp.%s is %v, the MicroOp's %v", i, name, fv.Field(j), w)
			}
		}
	}
}

// The interpreter steps into dst, and a short fill must leave the tail
// of the destination untouched (callers read the returned batch; stale
// entries must not masquerade as fresh µ-ops). Workload programs loop
// indefinitely, so this uses a small finite program that halts
// mid-batch.
func TestNextBatchShortFillLeavesTail(t *testing.T) {
	b := prog.NewBuilder("finite")
	b.Movi(isa.Reg(1), 100)
	b.Label("loop")
	b.Addi(isa.Reg(1), isa.Reg(1), -1)
	b.Bnez(isa.Reg(1), "loop")
	b.Halt()
	s := prog.MachineSource{M: prog.NewMachine(b.MustBuild())}

	buf := make([]prog.MicroOp, 64)
	sentinel := prog.MicroOp{Seq: ^uint64(0), PC: 0xDEAD}
	sawShort := false
	for {
		for i := range buf {
			buf[i] = sentinel
		}
		b := s.NextBatch(buf)
		n := len(b)
		if n > 0 && &b[0] != &buf[0] {
			t.Fatal("MachineSource.NextBatch returned µ-ops outside dst")
		}
		for i := n; i < len(buf); i++ {
			if buf[i] != sentinel {
				t.Fatalf("NextBatch(n=%d) wrote past its return count at index %d", n, i)
			}
		}
		if n == 0 {
			break
		}
		if n < len(buf) {
			sawShort = true
		}
	}
	if !sawShort {
		t.Fatal("program never produced a short (0 < n < len) fill; test is vacuous")
	}
}
