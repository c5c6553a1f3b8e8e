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

// runSeekScript drives two fresh cursors over fx by script — three
// bytes an operation: a kind and a 16-bit argument — a streaming Replay
// held to the reference µ-ops and a Records cursor whose records,
// expanded as a replaying core expands them, are held to their fetch
// records. It requires of every read exactly the entries of the
// reference at the cursor's position, of every Skip exactly the
// distance left, and of the drain after the script the rest of the
// stream. A read of n is a batch read called until it has n entries or
// the stream ends: every call must return 1..n entries, and none at the
// end only. A record cursor hands out the rest of a chunk at a time,
// which the script reads and skips through before it moves the cursor:
// each must be views of exactly the rest of one chunk and of the
// addresses of its loads and stores, capacity-capped so that appending
// to them cannot write into the chunk.
func runSeekScript(t *testing.T, fx seekFixture, script []byte) {
	t.Helper()
	r, err := fx.tr.SourceFor(fx.w)
	if err != nil {
		t.Fatal(err)
	}
	runSeekScriptOn(t, fx.name+"/replay", fx.ref, script,
		func(n int) []prog.MicroOp { return r.NextBatch(make([]prog.MicroOp, n)) },
		func() (u prog.MicroOp, ok bool) { ok = r.Next(&u); return u, ok },
		r.Skip)

	recs, err := fx.tr.RecordsFor(fx.w)
	if err != nil {
		t.Fatal(err)
	}
	ref := make([]prog.FetchOp, len(fx.ref))
	for i := range fx.ref {
		ref[i] = fx.ref[i].Fetch()
	}
	tmpl := fx.w.Program.FetchTemplate()
	var rest []prog.FetchOp // what the script has not read of the last Next
	next := func(n int) []prog.FetchOp {
		if len(rest) == 0 {
			ops, addrs, seq := recs.Next()
			end := min((seq/chunkOps+1)*chunkOps, fx.tr.Count)
			if len(ops) > 0 && (cap(ops) != len(ops) || cap(addrs) != len(addrs) || seq+uint64(len(ops)) != end) {
				t.Fatalf("%s/records: Next returned %d ops (capacity %d) from seq %d, and %d addresses (capacity %d): not capped views of the chunk's rest",
					fx.name, len(ops), cap(ops), seq, len(addrs), cap(addrs))
			}
			if mems := memOps(tmpl, ops); len(addrs) != mems {
				t.Fatalf("%s/records: Next returned %d addresses for %d loads and stores from seq %d", fx.name, len(addrs), mems, seq)
			}
			rest = expand(tmpl, ops, addrs, seq)
		}
		k := min(n, len(rest))
		b := rest[:k]
		rest = rest[k:]
		return b
	}
	runSeekScriptOn(t, fx.name+"/records", ref, script, next,
		func() (prog.FetchOp, bool) {
			if b := next(1); len(b) == 1 {
				return b[0], true
			}
			return prog.FetchOp{}, false
		},
		func(n uint64) uint64 {
			k := min(n, uint64(len(rest)))
			rest = rest[k:]
			return k + recs.Skip(n-k)
		})
}

// expand is what a replaying core builds of ops and addrs, the packed
// records from µ-op seq on: each op's instruction's template entry,
// with Seq and Taken set and, for a load or store, the next address.
func expand(tmpl []prog.FetchOp, ops []uint32, addrs []uint64, seq uint64) []prog.FetchOp {
	out := make([]prog.FetchOp, len(ops))
	for i, op := range ops {
		out[i] = tmpl[op&^TakenBit]
		out[i].Seq, out[i].Taken = seq+uint64(i), op&TakenBit != 0
		if out[i].Class.IsMem() {
			out[i].Addr, addrs = addrs[0], addrs[1:]
		}
	}
	return out
}

// memOps counts the loads and stores among ops.
func memOps(tmpl []prog.FetchOp, ops []uint32) int {
	n := 0
	for _, op := range ops {
		if tmpl[op&^TakenBit].Class.IsMem() {
			n++
		}
	}
	return n
}

// runSeekScriptOn runs script over one cursor, given as its batch read
// (next 1..n entries), its single read and its Skip.
func runSeekScriptOn[E comparable](t *testing.T, name string, ref []E, script []byte,
	batch func(n int) []E, one func() (E, bool), skip func(uint64) uint64) {
	t.Helper()
	pos := 0
	read := func(n int) {
		t.Helper()
		want := min(n, len(ref)-pos)
		got := 0
		for got < n {
			b := batch(n - got)
			if len(b) == 0 {
				break
			}
			if len(b) > n-got {
				t.Fatalf("%s: a batch of %d at %d returned %d entries", name, n-got, pos, len(b))
			}
			if !slices.Equal(b, ref[pos:pos+len(b)]) {
				t.Fatalf("%s: a batch of %d at %d yields other entries than a never-seeking decode", name, n-got, pos)
			}
			pos += len(b)
			got += len(b)
		}
		if got != want {
			t.Fatalf("%s: a read of %d at %d got %d entries, want %d", name, n, pos-got, got, want)
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
			e, ok := one()
			if ok != (pos < len(ref)) || (ok && e != ref[pos]) {
				t.Fatalf("%s: a single read at %d = %v, %+v", name, pos, ok, e)
			}
			if ok {
				pos++
			}
		case 3:
			got := skip(uint64(arg))
			if want := min(arg, len(ref)-pos); got != uint64(want) {
				t.Fatalf("%s: Skip(%d) at %d returned %d, want %d", name, arg, pos, got, want)
			}
			pos += int(got)
		}
	}
	read(len(ref) - pos + 1)
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

// TestReplaySeek holds a streaming cursor that is asked to skip to the
// stream a cursor that never is yields, and a record cursor to that
// stream's fetch records: same entries at the same positions, whatever
// the interleaving of batch reads, single reads and skips.
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
// are, field by field, the marks the validating scan builds from the
// same bytes: the same checkpoint offsets and static indexes.
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

// TestSharedChunksAreLazy: a record cursor decodes the chunks it
// enters and no others, also when a skip lands inside a chunk, and a
// second cursor adds nothing; both read, as a core expands them, the
// fetch records of a streaming decode.
func TestSharedChunksAreLazy(t *testing.T) {
	w := mustWorkload(t, "gzip")
	tr := Record(w, 10*chunkOps)
	tmpl := w.Program.FetchTemplate()
	for i := 0; i < 2; i++ {
		r, err := tr.RecordsFor(w)
		if err != nil {
			t.Fatal(err)
		}
		stream, err := tr.SourceFor(w)
		if err != nil {
			t.Fatal(err)
		}
		read := func() {
			var want prog.MicroOp
			ops, addrs, seq := r.Next()
			if len(ops) == 0 {
				t.Fatal("trace ran dry")
			}
			for j, got := range expand(tmpl, ops, addrs, seq) {
				if !stream.Next(&want) || got != want.Fetch() {
					t.Fatalf("cursor %d at seq %d reads\n %+v\nwhere the payload decodes to\n %+v", i, seq+uint64(j), got, want.Fetch())
				}
			}
		}
		if i == 0 && tr.DecodedUops() != 0 {
			t.Fatalf("a fresh recording holds %d decoded µ-ops", tr.DecodedUops())
		}
		read()
		read()
		if got := tr.DecodedUops(); i == 0 && got != 2*chunkOps {
			t.Errorf("%d µ-ops decoded after reading two chunks, want them (%d)", got, 2*chunkOps)
		}
		r.Skip(chunkOps + 5)
		stream.Skip(chunkOps + 5)
		read()
		if got := tr.DecodedUops(); got != 3*chunkOps {
			t.Errorf("cursor %d: %d µ-ops decoded after reading two chunks and a skip into the fourth, want three chunks (%d)", i, got, 3*chunkOps)
		}
	}
}

// TestTemplatesMatchDecode: over every registered workload — the
// Table 3 suite, the long-* family — and a synthetic one, a program's
// FetchTemplate holds only static fields, and every µ-op a record
// cursor hands out, expanded over it, equals the fetch record of a
// never-seeking decode, field for field.
func TestTemplatesMatchDecode(t *testing.T) {
	ws := append(workload.All(), workload.LongAll()...)
	ws = append(ws, workload.PredictabilitySweep()[0])
	for _, w := range ws {
		tmpl := w.Program.FetchTemplate()
		if len(tmpl) != len(w.Program.Code) {
			t.Fatalf("%s: %d template entries for %d instructions", w.Short, len(tmpl), len(w.Program.Code))
		}
		for i, f := range tmpl {
			if f.Seq != 0 || f.Addr != 0 || f.Taken {
				t.Fatalf("%s: template entry %d has dynamic fields set: %+v", w.Short, i, f)
			}
		}
		tr := Record(w, 2*chunkOps+321)
		stream, err := tr.SourceFor(w)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := tr.RecordsFor(w)
		if err != nil {
			t.Fatal(err)
		}
		var u prog.MicroOp
		for ops, addrs, seq := recs.Next(); len(ops) > 0; ops, addrs, seq = recs.Next() {
			for i, got := range expand(tmpl, ops, addrs, seq) {
				if !stream.Next(&u) {
					t.Fatalf("%s: the decode ends before record %d", w.Short, seq+uint64(i))
				}
				if want := u.Fetch(); got != want {
					t.Fatalf("%s: µ-op %d expands to\n %+v\nwhere the decode's fetch record is\n %+v", w.Short, u.Seq, got, want)
				}
			}
		}
		if stream.Next(&u) {
			t.Fatalf("%s: the record cursor ends before µ-op %d", w.Short, u.Seq)
		}
	}
}

// TestHead: a head of n µ-ops is the trace itself when that is all of
// it, and otherwise a trace of n µ-ops that both cursors read as the
// first n of the whole stream, whose payload ends at µ-op n's record
// (it survives Write and the validating scan), and that the same n
// returns again. What its cursors decode counts as the trace's.
func TestHead(t *testing.T) {
	for _, fx := range seekFixtures() {
		count := uint64(len(fx.ref))
		for _, n := range []uint64{0, 1, chunkOps - 1, chunkOps, chunkOps + 1, count - 1, count, count + 1} {
			h, err := fx.tr.Head(fx.w, n)
			if err != nil {
				t.Fatal(err)
			}
			if n >= count {
				if h != fx.tr {
					t.Errorf("%s: the head of %d µ-ops of a %d-µ-op trace is not the trace", fx.name, n, count)
				}
				continue
			}
			if again, _ := fx.tr.Head(fx.w, n); again != h || h.Count != n || h.Complete {
				t.Fatalf("%s: Head(%d) gave a trace of %d µ-ops (complete %v), and another on a second call: %v",
					fx.name, n, h.Count, h.Complete, again != h)
			}
			var buf bytes.Buffer
			if err := h.Write(&buf); err != nil {
				t.Fatal(err)
			}
			read, err := Parse(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			before, headBefore := fx.tr.DecodedUops(), h.DecodedUops()
			for _, tr := range []*Trace{h, read} {
				runSeekScript(t, seekFixture{fx.name + "/head", fx.w, tr, fx.ref[:n]}, nil)
			}
			if h.DecodedUops() != n || fx.tr.DecodedUops()-before != n-headBefore {
				t.Errorf("%s: a head of %d µ-ops read whole holds %d decoded, and the trace counts %d more of them",
					fx.name, n, h.DecodedUops(), fx.tr.DecodedUops()-before)
			}
		}
	}
}

// TestDecodedTraceHeap: a trace's shared chunks hold a 4-byte packed
// op per µ-op and an 8-byte address per load or store, and nothing
// else, so a 65 536-µ-op trace read whole through a record cursor holds
// at most 4 + 8 × (loads and stores)/µ-ops + 1 heap bytes per µ-op
// beyond its payload (the garbage-collected heap before and after), and
// DecodedBytes says exactly that. gzip is a mixed kernel, lbm the
// densest in loads and stores (0.47 of µ-ops) and sjeng holds none.
// Chunks of 16-byte records held up to 20 per µ-op, of 40-byte
// prog.FetchOps 48 and of whole prog.MicroOps 80.
func TestDecodedTraceHeap(t *testing.T) {
	for _, name := range []string{"gzip", "lbm", "sjeng"} {
		w := mustWorkload(t, name)
		tr := Record(w, 1<<16)
		r, err := tr.RecordsFor(w)
		if err != nil {
			t.Fatal(err)
		}
		heap := func() int64 {
			runtime.GC()
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			return int64(m.HeapAlloc)
		}
		before := heap()
		mems := 0
		for ops, _, _ := r.Next(); len(ops) > 0; ops, _, _ = r.Next() {
			mems += memOps(w.Program.FetchTemplate(), ops)
		}
		held := heap() - before
		runtime.KeepAlive(r)
		if tr.DecodedUops() != tr.Count {
			t.Fatalf("%s: %d of %d µ-ops decoded", name, tr.DecodedUops(), tr.Count)
		}
		if got, want := tr.DecodedBytes(), 4*tr.Count+8*uint64(mems); got != want {
			t.Errorf("%s: DecodedBytes = %d, want %d for %d µ-ops with %d loads and stores", name, got, want, tr.Count, mems)
		}
		frac := float64(mems) / float64(tr.Count)
		per, limit := float64(held)/float64(tr.Count), 4+8*frac+1
		t.Logf("%s: %.2f heap bytes per µ-op, limit %.2f", name, per, limit)
		if per > limit {
			t.Errorf("%s: the decoded trace holds %.2f heap bytes per µ-op, want <= %.2f (%.2f of µ-ops load or store)", name, per, limit, frac)
		}
	}
}

// TestRecordKeepsNoDecodedStream: what Record allocates beyond what
// running the machine allocates anyway is a small multiple of the
// payload — its append growth, 4.7–5.1 times the payload, and the
// marks — and nothing proportional to the 80-byte µ-ops it logs the
// loads of. A first run builds the image pages the stream touches, so
// that neither measured side pays for them.
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
		run := func() {
			m := w.NewMachine()
			var u prog.MicroOp
			for i := 0; i < n && m.StepInto(&u); i++ {
			}
		}
		run()
		machine := allocated(run)
		var tr *Trace
		record := allocated(func() { tr = Record(w, n) })
		runtime.KeepAlive(holder)
		if tr.Count != n {
			t.Fatalf("%s: recorded %d µ-ops", name, tr.Count)
		}
		if extra, limit := int64(record)-int64(machine), int64(6*tr.SizeBytes()); extra >= limit {
			t.Errorf("%s: Record allocated %d bytes beyond the machine's %d; payload is %d, budget %d",
				name, extra, machine, tr.SizeBytes(), limit)
		}
	}
}

// TestRecordingBuildsOnlyTouchedPages: Setup declares long-dram's 32 MB
// stream and mcf's 32 MB node cycle, and an image builds a page only
// when a machine first touches it, so a recording leaves the image
// holding the pages its walk reached, not the whole region. For the
// sampled cell's 2.88M-µ-op long-dram trace, a stream that reads every
// word of what it reaches, that is ~4.2 MB. For a 65 536-µ-op mcf
// trace, a chase that reads 16 bytes of each node it lands on, it is
// ~2.4 MB, and the page size sets it: 4 KiB pages built 14.5 MB. An
// image that Setup writes in full fails both.
func TestRecordingBuildsOnlyTouchedPages(t *testing.T) {
	for _, c := range []struct {
		name  string
		uops  uint64
		limit int // bytes of built pages
	}{
		{"long-dram", 2_880_000, 4_500_000},
		{"mcf", 65_536, 3_000_000},
	} {
		w := mustWorkload(t, c.name)
		runtime.GC()             // drops an image an earlier test left behind: this one must start unbuilt
		holder := w.NewMachine() // keeps the recording's image alive, and sees only its pages
		if tr := Record(w, c.uops); tr.Count != c.uops {
			t.Fatalf("%s: recorded %d µ-ops", c.name, tr.Count)
		}
		pages := holder.Mem.Resident()
		if built := pages * 8 * prog.PageWords; built > c.limit {
			t.Errorf("%s: the image holds %d pages (%d bytes) after the recording, want at most %d bytes of the declared %d",
				c.name, pages, built, c.limit, holder.Mem.Footprint()*8*prog.PageWords)
		}
	}
}
