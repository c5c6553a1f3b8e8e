package trace

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"slices"
	"sync"
	"testing"

	"eole/internal/isa"
	"eole/internal/prog"
	"eole/internal/workload"
)

// seekFixture is one trace the seek tests script cursors over, with
// the stream a never-seeking cursor yields from it.
type seekFixture struct {
	name string
	w    workload.Workload
	tr   *Trace
	ref  []prog.MicroOp
}

// seekFixtures builds, once per process, the traces the seek property
// test and FuzzReplaySeek share: a halting program and a memory-heavy
// kernel over several chunks, the zero-byte jump loop, and a trace
// shorter than one chunk — each both as recorded (marks noted by
// Record) and after Write/Read (marks built by the validating scan).
var seekFixtures = sync.OnceValue(func() []seekFixture {
	countdown := prog.NewBuilder("countdown")
	countdown.Movi(isa.IntReg(1), 5_000)
	countdown.Label("loop")
	countdown.Addi(isa.IntReg(1), isa.IntReg(1), -1)
	countdown.Bnez(isa.IntReg(1), "loop")
	countdown.Halt()
	spin := prog.NewBuilder("spin")
	spin.Label("top")
	spin.Jmp("top")
	mcf, err := workload.ByName("mcf")
	if err != nil {
		panic(err)
	}
	gzip, err := workload.ByName("gzip")
	if err != nil {
		panic(err)
	}
	var out []seekFixture
	for _, c := range []struct {
		name string
		w    workload.Workload
		n    uint64
	}{
		{"halting", workload.Workload{Name: "countdown", Short: "countdown", Program: countdown.MustBuild()}, 1 << 20},
		{"mcf", mcf, 3*chunkOps + 777},
		{"spin", workload.Workload{Name: "spin", Short: "spin", Program: spin.MustBuild()}, 2*chunkOps + 5},
		{"short", gzip, 1_000},
		{"whole-chunks", gzip, 2 * chunkOps},
	} {
		rec := Record(c.w, c.n)
		var buf bytes.Buffer
		if err := rec.Write(&buf); err != nil {
			panic(err)
		}
		read, err := Parse(buf.Bytes())
		if err != nil {
			panic(err)
		}
		for _, v := range []struct {
			suffix string
			tr     *Trace
		}{{"/recorded", rec}, {"/read", read}} {
			r, err := v.tr.SourceFor(c.w)
			if err != nil {
				panic(err)
			}
			var ref []prog.MicroOp
			buf := make([]prog.MicroOp, v.tr.Count+1)
			for b := r.NextBatch(buf); len(b) > 0; b = r.NextBatch(buf) {
				ref = append(ref, b...)
			}
			out = append(out, seekFixture{c.name + v.suffix, c.w, v.tr, ref})
		}
	}
	return out
})

// runSeekScript drives two fresh cursors over fx by script, one reading
// through the shared chunks and one streaming — three bytes an
// operation: a kind and a 16-bit argument — and requires of every read
// exactly the µ-ops of the reference stream at the cursor's position,
// of every Skip exactly the distance left, and of the drain after the
// script the rest of the stream. A read of n is NextBatch called until
// it has n µ-ops or the stream ends: every call must return 1..len(dst)
// µ-ops, and none at the end only; a shared cursor's must be a view of
// one chunk, capacity-capped so that appending to it cannot write into
// the chunk.
func runSeekScript(t *testing.T, fx seekFixture, script []byte) {
	t.Helper()
	for _, stream := range []bool{false, true} {
		r, err := fx.tr.SourceFor(fx.w)
		if err != nil {
			t.Fatal(err)
		}
		if stream {
			fx.name += "/streaming"
			r.Stream()
		}
		runSeekScriptOn(t, fx, r, script)
	}
}

func runSeekScriptOn(t *testing.T, fx seekFixture, r *Replay, script []byte) {
	t.Helper()
	pos := 0
	read := func(n int) {
		t.Helper()
		buf := make([]prog.MicroOp, n)
		want := min(n, len(fx.ref)-pos)
		got := 0
		for got < n {
			b := r.NextBatch(buf[got:])
			if len(b) == 0 {
				break
			}
			if len(b) > n-got {
				t.Fatalf("%s: NextBatch(%d) at %d returned %d µ-ops", fx.name, n-got, pos, len(b))
			}
			if !r.streaming && (cap(b) != len(b) || b[0].Seq/chunkOps != b[len(b)-1].Seq/chunkOps) {
				t.Fatalf("%s: NextBatch at %d returned %d µ-ops, capacity %d, over seqs %d..%d: not a capped view of one chunk",
					fx.name, pos, len(b), cap(b), b[0].Seq, b[len(b)-1].Seq)
			}
			if !slices.Equal(b, fx.ref[pos:pos+len(b)]) {
				t.Fatalf("%s: NextBatch(%d) at %d yields other µ-ops than a never-seeking cursor", fx.name, n-got, pos)
			}
			pos += len(b)
			got += len(b)
		}
		if got != want {
			t.Fatalf("%s: a read of %d at %d got %d µ-ops, want %d", fx.name, n, pos-got, got, want)
		}
	}
	for ; len(script) >= 3; script = script[3:] {
		arg := int(binary.LittleEndian.Uint16(script[1:]))
		switch script[0] % 4 {
		case 0:
			read(arg % 600) // around the core's 256-µ-op batch, 0 included
		case 1:
			read(arg) // up to 16 chunks' worth
		case 2:
			var u prog.MicroOp
			ok := r.Next(&u)
			if ok != (pos < len(fx.ref)) || (ok && u != fx.ref[pos]) {
				t.Fatalf("%s: Next at %d = %v, %+v", fx.name, pos, ok, u)
			}
			if ok {
				pos++
			}
		case 3:
			got := r.Skip(uint64(arg))
			if want := min(arg, len(fx.ref)-pos); got != uint64(want) {
				t.Fatalf("%s: Skip(%d) at %d returned %d, want %d", fx.name, arg, pos, got, want)
			}
			pos += int(got)
		}
	}
	read(len(fx.ref) - pos + 1)
}

// seekScript spells a script out of (kind, argument) pairs.
func seekScript(ops ...int) []byte {
	var b []byte
	for i := 0; i+1 < len(ops); i += 2 {
		b = append(b, byte(ops[i]))
		b = binary.LittleEndian.AppendUint16(b, uint16(ops[i+1]))
	}
	return b
}

const (
	opRead = 1
	opNext = 2
	opSkip = 3
)

// seekScripts are the directed cases for a trace of count µ-ops:
// skips of zero, within a chunk, across several, onto a chunk
// boundary, to exactly the end and past it, and reads, Nexts and skips
// after exhaustion.
func seekScripts(count int) [][]byte {
	return [][]byte{
		seekScript(opSkip, count, opNext, 0, opSkip, 1, opRead, 10),
		seekScript(opSkip, count-1, opNext, 0, opNext, 0, opSkip, 65535),
		seekScript(opRead, 10, opSkip, count, opRead, 10),
		nil, // never seeks: the shared chunks alone
		seekScript(opSkip, 0, opRead, 300, opSkip, 0, opNext, 0),
		seekScript(opRead, 100, opSkip, 10, opRead, 256, opSkip, 3*chunkOps, opRead, 256),
		seekScript(opSkip, chunkOps, opNext, 0, opSkip, chunkOps-1, opRead, 1, opRead, chunkOps+3),
		seekScript(opSkip, 1, opSkip, 1, opSkip, 1, opNext, 0, opSkip, chunkOps-4, opNext, 0),
		seekScript(opRead, 5000, opSkip, 65535, opRead, 10, opNext, 0, opSkip, 7),
		seekScript(opSkip, 999, opNext, 0, opSkip, 0, opNext, 0),
		seekScript(opSkip, 1000, opRead, 10, opNext, 0, opSkip, 1),
		seekScript(opSkip, 2*chunkOps, opRead, 10, opSkip, 5, opRead, 10),
	}
}

// TestReplaySeek holds a cursor that is asked to skip, in either mode,
// to the stream a cursor that never is yields: same µ-ops at the same
// positions, whatever the interleaving of NextBatch, Next and Skip.
func TestReplaySeek(t *testing.T) {
	for _, fx := range seekFixtures() {
		for _, script := range seekScripts(len(fx.ref)) {
			runSeekScript(t, fx, script)
		}
	}
}

// FuzzReplaySeek is TestReplaySeek over arbitrary scripts: the first
// byte picks the trace, the rest is the script.
func FuzzReplaySeek(f *testing.F) {
	for i, fx := range seekFixtures() {
		for _, script := range seekScripts(len(fx.ref)) {
			f.Add(append([]byte{byte(i)}, script...))
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		fxs := seekFixtures()
		runSeekScript(t, fxs[int(data[0])%len(fxs)], data[1:])
	})
}

// TestMarksRecordedEqualScanned: the marks Record notes while encoding
// are the marks the validating scan builds from the same bytes.
func TestMarksRecordedEqualScanned(t *testing.T) {
	fxs := seekFixtures()
	for i := 0; i+1 < len(fxs); i += 2 {
		rec, read := fxs[i].tr, fxs[i+1].tr
		if want := int((rec.Count + chunkOps - 1) / chunkOps); len(rec.marks) != want {
			t.Errorf("%s: %d marks for %d µ-ops, want %d", fxs[i].name, len(rec.marks), rec.Count, want)
		}
		if !slices.Equal(rec.marks, read.marks) {
			t.Errorf("%s: recorded marks %v, scanned marks %v", fxs[i].name, rec.marks, read.marks)
		}
	}
}

// TestStreamingCursorAllocatesNothing: once constructed, a streaming
// cursor reads and skips without allocating — it decodes into the
// caller's batch and keeps nothing, and the trace's shared chunks stay
// as they were, also when it has read before its first skip and when a
// skip is too short to leave the chunk.
func TestStreamingCursorAllocatesNothing(t *testing.T) {
	w := mustWorkload(t, "mcf")
	tr := Record(w, 200_000)
	r, err := tr.SourceFor(w)
	if err != nil {
		t.Fatal(err)
	}
	r.Stream()
	buf := make([]prog.MicroOp, 256)
	if len(r.NextBatch(buf)) != len(buf) || r.Skip(1) != 1 {
		t.Fatal("trace ran dry")
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if r.Skip(1_000) != 1_000 || len(r.NextBatch(buf)) != len(buf) {
			t.Fatal("trace ran dry")
		}
	}); allocs != 0 {
		t.Errorf("a seek and a batch allocate %v times, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { r.NextBatch(buf) }); allocs != 0 {
		t.Errorf("a streamed batch allocates %v times, want 0", allocs)
	}
	if got := tr.DecodedUops(); got != 0 {
		t.Errorf("a streaming cursor left %d µ-ops decoded in the trace", got)
	}
}

// TestSharedChunksAreLazy: a cursor reading through the shared chunks
// decodes the ones it enters and no others — none of those it skips
// over — and a second cursor adds nothing.
func TestSharedChunksAreLazy(t *testing.T) {
	w := mustWorkload(t, "gzip")
	tr := Record(w, 10*chunkOps)
	buf := make([]prog.MicroOp, chunkOps+1)
	readAll := func(r *Replay, dst []prog.MicroOp) {
		for n := 0; n < len(dst); {
			b := r.NextBatch(dst[n:])
			if len(b) == 0 {
				t.Fatal("trace ran dry")
			}
			n += len(b)
		}
	}
	for i := 0; i < 2; i++ {
		r, err := tr.SourceFor(w)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 && tr.DecodedUops() != 0 {
			t.Fatalf("a fresh recording holds %d decoded µ-ops", tr.DecodedUops())
		}
		readAll(r, buf)
		if got := tr.DecodedUops(); i == 0 && got != 2*chunkOps {
			t.Errorf("%d µ-ops decoded after reading %d, want the two chunks entered (%d)", got, len(buf), 2*chunkOps)
		}
		r.Skip(5 * chunkOps)
		readAll(r, buf[:1])
		if got := tr.DecodedUops(); got != 3*chunkOps {
			t.Errorf("cursor %d: %d µ-ops decoded after a read, a five-chunk skip and a read; want three chunks (%d)", i, got, 3*chunkOps)
		}
	}
}

// TestRecordKeepsNoDecodedStream: what Record allocates beyond what
// building and running the machine allocates anyway is a small
// multiple of the payload — the size hint, and for a sparse stream the
// right-sized copy — and nothing proportional to the 88-byte µ-ops it
// encodes.
func TestRecordKeepsNoDecodedStream(t *testing.T) {
	const n = 1 << 20
	for _, name := range []string{"long-dram", "mcf"} {
		w := mustWorkload(t, name)
		holder := w.NewMachine() // the workload's image exists on both sides
		allocated := func(f func()) uint64 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			f()
			runtime.ReadMemStats(&after)
			return after.TotalAlloc - before.TotalAlloc
		}
		machine := allocated(func() {
			m := w.NewMachine()
			var u prog.MicroOp
			for i := 0; i < n && m.StepInto(&u); i++ {
			}
		})
		var tr *Trace
		record := allocated(func() { tr = Record(w, n) })
		runtime.KeepAlive(holder)
		if tr.Count != n {
			t.Fatalf("%s: recorded %d µ-ops", name, tr.Count)
		}
		if extra, limit := int64(record)-int64(machine), int64(3*tr.SizeBytes()); extra >= limit {
			t.Errorf("%s: Record allocated %d bytes beyond the machine's %d; payload is %d, budget %d",
				name, extra, machine, tr.SizeBytes(), limit)
		}
	}
}
