package trace

import (
	"bytes"
	"encoding/binary"
	"testing"

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
// program and a zero-bytes-per-µ-op jump loop) plus targeted
// mutations: truncations, a bad magic, and a header claiming 2^60
// records — the over-allocation case the decoder caps.
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
		hdr = append(hdr, 1) // version
		hdr = append(hdr, 4) // name length
		hdr = append(hdr, "gzip"...)
		hdr = binary.LittleEndian.AppendUint64(hdr, 0) // program hash
		hdr = binary.AppendUvarint(hdr, 1<<60)         // count
		hdr = append(hdr, 0)                           // incomplete
		hdr = binary.AppendUvarint(hdr, 0)             // payload length
		f.Add(hdr)
	}

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
		for b, _ := recs.Next(1000); len(b) > 0; b, _ = recs.Next(1000) {
			n += uint64(len(b))
		}
		if n != tr.Count {
			t.Errorf("a record cursor over the aliased trace covered %d of %d µ-ops", n, tr.Count)
		}
	})
}
