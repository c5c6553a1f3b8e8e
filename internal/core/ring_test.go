package core

import (
	"reflect"
	"testing"
	"unsafe"

	"eole/internal/prog"
	"eole/internal/trace"
	"eole/internal/vpred"
)

// fillNonZero sets every scalar under v, unexported fields included,
// to a non-zero value.
func fillNonZero(t *testing.T, v reflect.Value) {
	t.Helper()
	v = reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem() // settable
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillNonZero(t, v.Field(i))
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillNonZero(t, v.Index(i))
		}
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(3)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(3)
	default:
		t.Fatalf("uop holds a %s: teach fillNonZero about it", v.Kind())
	}
}

// A squashed µ-op is reset where it lies and refetched from there, so
// whatever resetForReplay leaves behind the next trip down the pipeline
// starts with. Only the fetch-time template may survive: a field added
// to uop later fails here until it is either put with the pipeline
// state or named below as part of the template.
func TestResetForReplayLeavesOnlyTheTemplate(t *testing.T) {
	var u uop
	fillNonZero(t, reflect.ValueOf(&u).Elem())
	if u.allocBank == -1 || u.prevBank == -1 || !u.issued || u.nextWait[1] == 0 || !u.Taken || u.Class == 0 {
		t.Fatalf("fillNonZero left defaults behind: %+v", u)
	}
	want := uop{
		FetchOp:   u.FetchOp,
		verdict:   u.verdict,
		pipeState: pipeState{allocBank: -1, prevBank: -1},
	}
	resetForReplay(&u)
	if u != want {
		t.Fatalf("after resetForReplay:\n have %+v\n want %+v", u, want)
	}
}

// First fetch writes a ring slot part by part, without clearing it
// first: what the pipeline reads of the µ-op (the prog.FetchOp), its
// verdict and the pipeline state. A slot full of a previous µ-op's
// leftovers must therefore come out of nextUop exactly as a never-used
// one does, on a live core and on a tracked one; a fourth part of uop
// that nextUop does not write fails here.
func TestUopPartsAllWritten(t *testing.T) {
	if n := reflect.TypeOf(uop{}).NumField(); n != 3 {
		t.Errorf("uop has %d parts; nextUop writes the fetch record, verdict and pipeState only", n)
	}
	w := mustWorkload(t, "gzip")
	tr := trace.Record(w, 4096)
	for name, core := range map[string]func() *Core{
		"live":    func() *Core { return newTestCore(t, "EOLE_4_64", "gzip") },
		"tracked": func() *Core { return mustReplay(t, mustConfig(t, "EOLE_4_64"), tr, w) },
	} {
		clean, dirty := core(), core()
		for i := range dirty.ring {
			fillNonZero(t, reflect.ValueOf(&dirty.ring[i]).Elem())
		}
		for i := 0; i < 2*len(dirty.ring); i++ {
			want, got := clean.nextUop(), dirty.nextUop()
			if *got != *want {
				t.Fatalf("%s µ-op %d: a reused slot reads\n %+v\nwhere a fresh one reads\n %+v", name, i, *got, *want)
			}
		}
	}
}

// The records the hot path moves: a ring entry is written once per
// fetched µ-op and walked by every squash, a fetch record is what every
// first fetch writes into its slot, the cycle loop takes and
// compares a machineState every cycle (up to 64 bytes it is copied
// without duffcopy), and a
// Prediction crosses the Predictor interface twice per VP-eligible µ-op
// and fits in registers only up to 16 bytes.
func TestHotRecordSizes(t *testing.T) {
	if sz := unsafe.Sizeof(uop{}); sz > 128 {
		t.Errorf("a ring entry is %d bytes, was 128 when the slot stopped holding a whole prog.MicroOp", sz)
	}
	if sz := unsafe.Sizeof(prog.FetchOp{}); sz > 40 {
		t.Errorf("a fetch record is %d bytes, want <= 40 (a prog.MicroOp is 80)", sz)
	}
	if sz := unsafe.Sizeof(machineState{}); sz > 64 {
		t.Errorf("machineState is %d bytes, want <= 64", sz)
	}
	if sz := unsafe.Sizeof(vpred.Prediction{}); sz > 16 {
		t.Errorf("vpred.Prediction is %d bytes, want <= 16", sz)
	}
}
