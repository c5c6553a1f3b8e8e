package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"runtime"
	"testing"
	"time"

	"eole/internal/isa"
	"eole/internal/prog"
	"eole/internal/workload"
)

// FuzzTraceRead feeds arbitrary bytes through the whole untrusted
// path — file decode (from a reader and from the caller's slice),
// header validation, and (when a trace passes the checksum) the
// validating scan and a full replay against its workload's program.
// The contract under attack: corrupted, truncated or hostile inputs
// must return errors; they must never panic, hang, or allocate
// proportionally to a header-claimed count instead of the input size.
//
// The seed corpus holds real recordings (including a complete halting
// program and a jump loop that logs no load) plus targeted mutations:
// truncations, a bad magic, headers claiming 2^60 records — the
// over-allocation case the checkpoints bound — and load values altered
// under a valid CRC.
func FuzzTraceRead(f *testing.F) {
	encode := func(t *Trace) []byte {
		var buf bytes.Buffer
		if err := t.Write(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}

	// Real recordings: a mixed kernel and a memory-heavy one.
	for _, wl := range []string{"gzip", "mcf"} {
		w, err := workload.ByName(wl)
		if err != nil {
			f.Fatal(err)
		}
		seed := encode(Record(w, 2_000))
		f.Add(seed)
		f.Add(seed[:len(seed)/2]) // truncated mid-payload
		f.Add(seed[:6])           // truncated mid-header
		bad := bytes.Clone(seed)
		bad[0] = 'X' // magic mismatch
		f.Add(bad)
		flip := bytes.Clone(seed)
		flip[len(flip)/2] ^= 0x40 // payload bit flip (CRC must catch)
		f.Add(flip)
	}

	// A jump-only loop: zero payload bytes per µ-op, the shape that
	// legitimately has Count >> len(payload).
	{
		b := prog.NewBuilder("spin")
		b.Label("top")
		b.Jmp("top")
		w := workload.Workload{Name: "spin", Short: "spin", Program: b.MustBuild()}
		f.Add(encode(Record(w, 1_000)))
	}

	// A hostile header claiming 2^60 records over a tiny body.
	{
		hdr := []byte{'E', 'O', 'L', 'T'}
		hdr = append(hdr, Version)
		hdr = append(hdr, 4) // name length
		hdr = append(hdr, "gzip"...)
		hdr = binary.LittleEndian.AppendUint64(hdr, 0) // program hash
		hdr = binary.AppendUvarint(hdr, 1<<60)         // count
		hdr = append(hdr, 0)                           // incomplete
		hdr = binary.AppendUvarint(hdr, 0)             // payload length
		f.Add(hdr)
	}

	// Past every header check: sjeng's real program hash and a valid CRC
	// claiming 2^60 µ-ops over a short body, and a real trace with one
	// load value altered (see TestHostileCountRejected and
	// TestAlteredLoadValueFailsAtCheckpoint).
	f.Add(hostileCount(f))
	f.Add(alteredLoadValue(f))
	f.Add(flippedLastLoad(f))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := Read(bytes.NewReader(data))
		// Parse is the same reader over the caller's own slice (the
		// trace aliases it): same verdict, and the input left intact.
		orig := bytes.Clone(data)
		aliased, perr := Parse(data)
		if (err == nil) != (perr == nil) {
			t.Fatalf("Read: %v, Parse of the same bytes: %v", err, perr)
		}
		if err != nil {
			return // rejected input: the expected outcome for noise
		}
		defer func() {
			if !bytes.Equal(data, orig) {
				t.Error("parsing or replaying an aliased trace wrote to the caller's bytes")
			}
		}()
		// The header parsed and the checksum matched. Everything past
		// this point must still be total: resolving the workload can
		// fail (unknown name, program drift), and decoding can fail
		// (payload desynchronized from the program), but neither may
		// panic or allocate beyond the input's scale.
		src, err := tr.NewSource()
		if err != nil {
			return
		}
		var u prog.MicroOp
		var n uint64
		for src.Next(&u) {
			n++
		}
		if n != tr.Count {
			t.Errorf("decode yielded %d µ-ops for a trace claiming %d past all checks", n, tr.Count)
		}
		// The aliasing trace replays the same stream; read it by seeking,
		// so the hostile input reaches the mark table, and through the
		// shared chunks as well as the private decoder.
		asrc, err := aliased.NewSource()
		if err != nil {
			t.Fatalf("Read's trace has a source, Parse's does not: %v", err)
		}
		n = asrc.Skip(tr.Count / 2)
		for asrc.Next(&u) {
			n++
		}
		if n != tr.Count {
			t.Errorf("a seeking cursor over the aliased trace covered %d of %d µ-ops", n, tr.Count)
		}
		w, err := workload.ByName(aliased.Workload)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := aliased.RecordsFor(w)
		if err != nil {
			t.Fatalf("the aliased trace has a source, but no records: %v", err)
		}
		n = 0
		for ops, _, _ := recs.Next(); len(ops) > 0; ops, _, _ = recs.Next() {
			n += uint64(len(ops))
		}
		if n != tr.Count {
			t.Errorf("a record cursor over the aliased trace covered %d of %d µ-ops", n, tr.Count)
		}
	})
}

// hostileCount is a trace that passes Parse — sjeng's name and real
// program hash, a valid CRC — but claims 2^60 µ-ops over the payload of
// a three-chunk recording of sjeng, a workload whose loads log next to
// nothing.
func hostileCount(tb testing.TB) []byte {
	w, err := workload.ByName("sjeng")
	if err != nil {
		tb.Fatal(err)
	}
	tr := Record(w, 3*chunkOps)
	tr.Count = 1 << 60
	return tr.Encode()
}

// TestHostileCountRejected: the claim of 2^60 µ-ops fails the
// validating scan with ErrCorrupt where the payload runs out of
// checkpoints, at the fourth chunk, within a second and allocating on
// the scale of the input, not of the claim.
func TestHostileCountRejected(t *testing.T) {
	b := hostileCount(t)
	tr, err := Parse(b)
	if err != nil {
		t.Fatalf("the hostile trace fails Parse already: %v", err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	_, err = tr.NewSource()
	took := time.Since(start)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
	if took > time.Second {
		t.Errorf("rejecting the claim took %v", took)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(16*len(b)) {
		t.Errorf("rejecting a %d-byte trace allocated %d bytes", len(b), alloc)
	}
}

// alteredLoadValue is a real three-chunk parser trace with one load
// value altered by two, under a recomputed CRC. The load is the first
// that reads an odd list-node value: the kernel folds such a value into
// its accumulator (r4, mixed again at every later node), so the change
// reaches the registers for good, while the value stays odd and so
// every branch, and every later load, stays where it was. Both the
// chunk's load-value digest and the register checkpoint behind it can
// tell. The interpreter, not the decoder, finds the load's offset: the
// checkpoint in front of µ-op 0, then a uvarint per load before it.
func alteredLoadValue(tb testing.TB) []byte {
	w, err := workload.ByName("parser")
	if err != nil {
		tb.Fatal(err)
	}
	m := w.NewMachine()
	off := len(appendRegs(nil, &m.Regs))
	for u, ok := m.Step(); ; u, ok = m.Step() {
		if !ok || u.Seq >= chunkOps {
			tb.Fatal("no odd node value in parser's first chunk")
		}
		if u.Op == isa.OpLd && u.Index == 0 && u.Value&1 == 1 {
			break
		}
		if u.Op == isa.OpLd {
			off += len(binary.AppendUvarint(nil, u.Value))
		}
	}
	tr := Record(w, 3*chunkOps)
	b := tr.Encode()
	b[len(b)-4-len(tr.payload)+off] ^= 2 // a value bit of the uvarint's first byte: same length, same parity
	binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[:len(b)-4]))
	return b
}

// TestAlteredLoadValueFailsAtCheckpoint: the altered load value
// disagrees with its chunk's digest and makes the re-executed registers
// disagree with the next checkpoint, so the validating scan fails with
// ErrCorrupt and no cursor of either kind ever yields the altered
// stream.
func TestAlteredLoadValueFailsAtCheckpoint(t *testing.T) {
	tr, err := Parse(alteredLoadValue(t))
	if err != nil {
		t.Fatalf("the altered trace fails Parse already: %v", err)
	}
	w, err := workload.ByName(tr.Workload)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.SourceFor(w); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("source: got %v, want ErrCorrupt", err)
	}
	if _, err := tr.RecordsFor(w); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("records: got %v, want ErrCorrupt", err)
	}
}

// loadOffsets returns where, in the payload of Record(w, n), the value
// of each load of chunk k lies, by chunk. The interpreter, not the
// decoder, finds them: a chunk is a register checkpoint, a uvarint per
// load and an 8-byte digest. It fails tb unless that accounts for the
// whole payload.
func loadOffsets(tb testing.TB, w workload.Workload, tr *Trace) [][]int {
	m := w.NewMachine()
	var u prog.MicroOp
	var offs [][]int
	off := 0
	for seq := uint64(0); seq < tr.Count; seq++ {
		if seq%chunkOps == 0 {
			offs = append(offs, nil)
			off += len(appendRegs(nil, &m.Regs))
		}
		m.StepInto(&u)
		if u.Op == isa.OpLd {
			offs[len(offs)-1] = append(offs[len(offs)-1], off)
			off += len(binary.AppendUvarint(nil, u.Value))
		}
		if (seq+1)%chunkOps == 0 || seq+1 == tr.Count {
			off += 8
		}
	}
	if off != len(tr.payload) {
		tb.Fatalf("%s: checkpoints, load values and digests take %d bytes, the payload %d", w.Short, off, len(tr.payload))
	}
	return offs
}

// flippedLastLoad is a real three-chunk gzip trace, the last chunk
// partial, with the low bit of the last chunk's first load value
// flipped under a recomputed CRC: no checkpoint follows that chunk,
// only the digest at the payload's end.
func flippedLastLoad(tb testing.TB) []byte {
	w, err := workload.ByName("gzip")
	if err != nil {
		tb.Fatal(err)
	}
	tr := Record(w, 2*chunkOps+1234)
	offs := loadOffsets(tb, w, tr)
	b := tr.Encode()
	b[len(b)-4-len(tr.payload)+offs[len(offs)-1][0]] ^= 1
	binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[:len(b)-4]))
	return b
}

// TestFlippedLoadValuesFailDigest: flipping the low bit of any single
// load value, in the first chunk or in the last (partial) one, fails
// the validating scan with ErrCorrupt, over six kernels — also where
// the change is dead in the registers by the next checkpoint, or no
// checkpoint follows. Before the digests a checkpoint caught 3 of
// bzip2's 666 first-chunk flips and 65 of gzip's 440. The flipped
// copy of the payload goes through buildMarks as a parsed trace's
// would, past the CRC.
func TestFlippedLoadValuesFailDigest(t *testing.T) {
	for _, name := range []string{"gzip", "bzip2", "namd", "crafty", "mcf", "parser"} {
		w := mustWorkload(t, name)
		tr := Record(w, 2*chunkOps+1234)
		offs := loadOffsets(t, w, tr)
		if len(offs) != 3 || len(offs[0]) == 0 || len(offs[2]) == 0 {
			t.Fatalf("%s: loads by chunk %v, want loads in the first and last of three chunks", name, len(offs))
		}
		bad := make([]byte, len(tr.payload))
		for _, chunkOffs := range [][]int{offs[0], offs[2]} {
			for _, off := range chunkOffs {
				copy(bad, tr.payload)
				bad[off] ^= 1
				flipped := &Trace{Workload: tr.Workload, Count: tr.Count, progHash: tr.progHash, payload: bad}
				if err := flipped.buildMarks(w.Program); !errors.Is(err, ErrCorrupt) {
					t.Fatalf("%s: the load value at payload offset %d with its low bit flipped scans to %v, want ErrCorrupt", name, off, err)
				}
			}
		}
	}
}

// TestFlippedLastLoadRejected: the fuzz seed's flip, past the CRC,
// fails the validating scan.
func TestFlippedLastLoadRejected(t *testing.T) {
	tr, err := Parse(flippedLastLoad(t))
	if err != nil {
		t.Fatalf("the flipped trace fails Parse already: %v", err)
	}
	if _, err := tr.NewSource(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("got %v, want ErrCorrupt", err)
	}
}
