package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"
	"unsafe"

	"eole/internal/isa"
	"eole/internal/prog"
	"eole/internal/workload"
)

// mustWorkload resolves a registered benchmark or fails the test.
func mustWorkload(t testing.TB, name string) workload.Workload {
	t.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// TestReplayMatchesInterpreter replays a recorded trace µ-op by µ-op
// against a fresh functional machine and requires exact equality of
// every field — the property the byte-identical-report guarantee
// rests on.
func TestReplayMatchesInterpreter(t *testing.T) {
	const n = 30_000
	for _, name := range []string{"gzip", "mcf", "namd", "gcc", "vortex", "milc"} {
		t.Run(name, func(t *testing.T) {
			w := mustWorkload(t, name)
			tr := Record(w, n)
			if tr.Count != n {
				t.Fatalf("recorded %d µ-ops, want %d", tr.Count, n)
			}
			src, err := tr.NewSource()
			if err != nil {
				t.Fatal(err)
			}
			m := w.NewMachine()
			var got prog.MicroOp
			for i := 0; i < n; i++ {
				want, ok := m.Step()
				if !ok {
					t.Fatalf("machine exhausted at %d", i)
				}
				if !src.Next(&got) {
					t.Fatalf("replay exhausted at %d", i)
				}
				if got != want {
					t.Fatalf("µ-op %d diverges:\n  replay %+v\n  exec   %+v", i, got, want)
				}
			}
			if src.Next(&got) {
				t.Fatal("replay yields µ-ops past the recorded count")
			}
		})
	}
}

// TestRecordDeterministic checks that recording is reproducible, so
// content-addressed trace sharing is sound.
func TestRecordDeterministic(t *testing.T) {
	w := mustWorkload(t, "crafty")
	a, b := Record(w, 10_000), Record(w, 10_000)
	if !bytes.Equal(a.payload, b.payload) || a.Count != b.Count || a.progHash != b.progHash {
		t.Fatal("two recordings of the same workload differ")
	}
}

// TestEncodingDensity guards the compactness claim: the varint packing
// should stay well under 16 bytes per µ-op on every workload (typical
// is 2-4; raw MicroOps are ~90 bytes).
func TestEncodingDensity(t *testing.T) {
	for _, w := range workload.All() {
		tr := Record(w, 20_000)
		perOp := float64(tr.SizeBytes()) / float64(tr.Count)
		if perOp > 16 {
			t.Errorf("%s: %.1f bytes/µ-op, want < 16", w.Short, perOp)
		}
	}
}

// TestWriteReadRoundTrip serializes a trace and checks that the
// decoded copy replays identically to the original.
func TestWriteReadRoundTrip(t *testing.T) {
	w := mustWorkload(t, "bzip2")
	tr := Record(w, 20_000)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Workload != tr.Workload || got.Count != tr.Count ||
		got.Complete != tr.Complete || got.progHash != tr.progHash ||
		!bytes.Equal(got.payload, tr.payload) {
		t.Fatalf("round-trip mismatch: got %+v want %+v", got, tr)
	}
	// The read-back trace gets its marks from the validating scan, not
	// from Record; compare its replay against the interpreter µ-op by
	// µ-op.
	src, err := got.NewSource()
	if err != nil {
		t.Fatal(err)
	}
	m := w.NewMachine()
	var ru prog.MicroOp
	for i := uint64(0); i < got.Count; i++ {
		want, ok := m.Step()
		if !ok {
			t.Fatalf("machine exhausted at %d", i)
		}
		if !src.Next(&ru) {
			t.Fatalf("replay exhausted at %d", i)
		}
		if ru != want {
			t.Fatalf("decoded µ-op %d diverges:\n  replay %+v\n  exec   %+v", i, ru, want)
		}
	}
	if src.Next(&ru) {
		t.Fatal("replay yields µ-ops past the recorded count")
	}
}

// TestEncodeHoldsBytesOnce: Encode returns what Write writes, that
// round-trips through Parse, and the trace's payload becomes a view of
// those bytes — nothing of the recording's own buffer is left — while
// the trace still replays the interpreter's stream.
func TestEncodeHoldsBytesOnce(t *testing.T) {
	w := mustWorkload(t, "bzip2")
	tr := Record(w, 20_000)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	b := tr.Encode()
	if !bytes.Equal(b, buf.Bytes()) {
		t.Fatal("Encode differs from Write")
	}
	got, err := Parse(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Workload != tr.Workload || got.Count != tr.Count || got.Complete != tr.Complete ||
		got.progHash != tr.progHash || !bytes.Equal(got.payload, tr.payload) {
		t.Fatalf("Encode/Parse round-trip mismatch: got %+v want %+v", got, tr)
	}
	if start, end := &b[0], &b[len(b)-1]; len(tr.payload) == 0 ||
		uintptr(unsafe.Pointer(&tr.payload[0])) < uintptr(unsafe.Pointer(start)) ||
		uintptr(unsafe.Pointer(&tr.payload[len(tr.payload)-1])) > uintptr(unsafe.Pointer(end)) {
		t.Fatal("the encoded trace's payload does not lie inside the bytes Encode returned")
	}
	if cap(tr.payload) != len(tr.payload) {
		t.Errorf("payload view has capacity %d past its %d bytes", cap(tr.payload), len(tr.payload))
	}
	src, err := tr.SourceFor(w)
	if err != nil {
		t.Fatal(err)
	}
	m := w.NewMachine()
	var ru prog.MicroOp
	for i := uint64(0); i < tr.Count; i++ {
		want, _ := m.Step()
		if !src.Next(&ru) || ru != want {
			t.Fatalf("µ-op %d of the encoded trace diverges:\n  replay %+v\n  exec   %+v", i, ru, want)
		}
	}
}

// TestReadRejectsCorruption flips every byte position in a small trace
// file and requires each corruption to be rejected (CRC or header
// validation), never silently accepted with altered content.
func TestReadRejectsCorruption(t *testing.T) {
	w := mustWorkload(t, "gzip")
	tr := Record(w, 500)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	orig := buf.Bytes()
	for i := range orig {
		mut := bytes.Clone(orig)
		mut[i] ^= 0x40
		if _, err := Read(bytes.NewReader(mut)); err == nil {
			t.Fatalf("corruption at byte %d/%d accepted", i, len(orig))
		}
	}
}

// TestReadRejectsTruncation cuts the file at several points and
// requires ErrCorrupt each time.
func TestReadRejectsTruncation(t *testing.T) {
	w := mustWorkload(t, "gzip")
	tr := Record(w, 500)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, n := range []int{0, 3, 4, 10, len(full) / 2, len(full) - 1} {
		if _, err := Read(bytes.NewReader(full[:n])); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncation to %d bytes: got %v, want ErrCorrupt", n, err)
		}
	}
}

// TestReadRejectsShortHeaderWithValidCRC crafts a file whose CRC is
// correct but whose header ends mid-field; Read must return
// ErrCorrupt, not panic (regression: the header reader used to index
// into a nil slice).
func TestReadRejectsShortHeaderWithValidCRC(t *testing.T) {
	for _, body := range [][]byte{
		{'E', 'O', 'L', 'T'},
		{'E', 'O', 'L', 'T', Version},
		{'E', 'O', 'L', 'T', Version, 0},             // namelen 0, then nothing
		{'E', 'O', 'L', 'T', Version, 0, 0xAB, 0xCD}, // progHash cut short
		{'E', 'O', 'L', 'T', Version, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}, // giant namelen
	} {
		raw := append(bytes.Clone(body), 0, 0, 0, 0)
		fixCRC(raw)
		if _, err := Read(bytes.NewReader(raw)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("short header %x: got %v, want ErrCorrupt", body, err)
		}
	}
}

// fixCRC rewrites the trailing CRC-32 so only the crafted defect
// remains.
func fixCRC(raw []byte) {
	binary.LittleEndian.PutUint32(raw[len(raw)-4:], crc32.ChecksumIEEE(raw[:len(raw)-4]))
}

// TestReadRejectsVersionMismatch rewrites the version field (fixing
// the checksum so only the version differs) and requires ErrVersion —
// the signal callers use to fall back to execute-driven simulation.
func TestReadRejectsVersionMismatch(t *testing.T) {
	w := mustWorkload(t, "gzip")
	tr := Record(w, 100)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	// The version uvarint sits right after the 4-byte magic; Version 1
	// occupies one byte.
	if b[4] != Version {
		t.Fatalf("unexpected header layout: byte 4 is %d", b[4])
	}
	b[4] = Version + 1
	body := b[:len(b)-4]
	binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(body))
	if _, err := Read(bytes.NewReader(b)); !errors.Is(err, ErrVersion) {
		t.Fatalf("got %v, want ErrVersion", err)
	}
}

// TestSourceRejectsProgramMismatch relabels a trace as a different
// workload; the program hash must catch it.
func TestSourceRejectsProgramMismatch(t *testing.T) {
	w := mustWorkload(t, "gzip")
	tr := Record(w, 100)
	tr.Workload = "mcf"
	if _, err := tr.NewSource(); !errors.Is(err, ErrProgramMismatch) {
		t.Fatalf("got %v, want ErrProgramMismatch", err)
	}
	tr.Workload = "no-such-benchmark"
	if _, err := tr.NewSource(); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// TestCompleteTraceCoversHalt records a tiny halting program to the
// end and checks the Complete flag, halt handling and CanServe
// semantics.
func TestCompleteTraceCoversHalt(t *testing.T) {
	b := prog.NewBuilder("tiny")
	b.Movi(isa.IntReg(1), 5)
	b.Label("loop")
	b.Addi(isa.IntReg(1), isa.IntReg(1), -1)
	b.Bnez(isa.IntReg(1), "loop")
	b.Halt()
	w := workload.Workload{Name: "tiny", Short: "tiny", Program: b.MustBuild()}

	tr := Record(w, 1_000_000)
	if !tr.Complete {
		t.Fatal("halting program did not mark the trace complete")
	}
	if !tr.CanServe(1 << 40) {
		t.Fatal("complete trace must serve any length")
	}
	// Round-trip through bytes so the halt record goes through the
	// validating scan as well as the chunk decoder.
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	tr, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	src, err := tr.SourceFor(w)
	if err != nil {
		t.Fatal(err)
	}
	m := w.NewMachine()
	var got, want prog.MicroOp
	var steps uint64
	for {
		w1, ok1 := m.Step()
		ok2 := src.Next(&got)
		if ok1 != ok2 {
			t.Fatalf("exhaustion mismatch at step %d: exec %v, replay %v", steps, ok1, ok2)
		}
		if !ok1 {
			break
		}
		want = w1
		if got != want {
			t.Fatalf("step %d diverges: %+v vs %+v", steps, got, want)
		}
		steps++
	}
	if steps != tr.Count {
		t.Fatalf("replayed %d µ-ops, trace holds %d", steps, tr.Count)
	}
}

// TestPartialTraceCanServe checks the incomplete-trace length rule.
func TestPartialTraceCanServe(t *testing.T) {
	w := mustWorkload(t, "gzip")
	tr := Record(w, 1_000)
	if tr.Complete {
		t.Fatal("gzip should not halt within 1000 µ-ops")
	}
	if !tr.CanServe(1_000) || tr.CanServe(1_001) {
		t.Fatalf("CanServe wrong around the recorded count %d", tr.Count)
	}
}

// TestSlackFor pins the config-aware replay margin: the ReplaySlack
// floor for every Table 1 machine, and window+fetchq-scaled for
// custom machines with huge ROBs.
func TestSlackFor(t *testing.T) {
	if got := SlackFor(192, 128); got != ReplaySlack {
		t.Errorf("SlackFor(192,128) = %d, want floor %d", got, ReplaySlack)
	}
	if got := SlackFor(4096, 128); got <= ReplaySlack || got < 8192+128 {
		t.Errorf("SlackFor(4096,128) = %d, want >= %d", got, 8192+128)
	}
}
