package core

import (
	"testing"

	"eole/internal/prog"
	"eole/internal/trace"
)

// A full run reads its trace's shared records in place — its record
// cursor hands out views of them — and every other full run over the
// trace reads the same chunks, so the core must never write through a
// view. Four configs' full cells replay one trace; then every decoded
// record, expanded over the program's template as the core expands it,
// must equal, field for field, the fetch record of a fresh streaming
// decode of the same range, which reads the payload and no chunk.
func TestReplayViewsStayReadOnly(t *testing.T) {
	w := mustWorkload(t, "gzip")
	const n = 20_000
	tr := trace.Record(w, n+trace.ReplaySlack)
	for _, name := range []string{"Baseline_6_64", "Baseline_VP_6_64", "EOLE_6_64", "EOLE_4_64"} {
		mustReplay(t, mustConfig(t, name), tr, w).Run(n)
	}
	decoded := tr.DecodedUops()
	if decoded < n {
		t.Fatalf("the cells left %d µ-ops decoded, want at least the %d they ran", decoded, n)
	}
	recs, err := tr.RecordsFor(w)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := tr.SourceFor(w)
	if err != nil {
		t.Fatal(err)
	}
	var want prog.MicroOp
	tmpl := w.Program.FetchTemplate()
	for next := uint64(0); next < decoded; {
		ops, addrs, seq := recs.Next()
		if len(ops) == 0 || seq != next {
			t.Fatalf("record cursor at %d returned %d records from %d, of %d decoded µ-ops", next, len(ops), seq, decoded)
		}
		for i, op := range ops {
			got := tmpl[op&^trace.TakenBit]
			got.Seq, got.Taken = seq+uint64(i), op&trace.TakenBit != 0
			if got.Class.IsMem() {
				got.Addr, addrs = addrs[0], addrs[1:]
			}
			if !stream.Next(&want) || got != want.Fetch() {
				t.Fatalf("decoded chunk expands at seq %d to\n %+v\nwhere the payload decodes to\n %+v", got.Seq, got, want.Fetch())
			}
		}
		if len(addrs) != 0 {
			t.Fatalf("the chunk from seq %d holds %d addresses beyond its loads and stores", seq, len(addrs))
		}
		next += uint64(len(ops))
	}
	if got := tr.DecodedUops(); got != decoded {
		t.Fatalf("the comparison decoded %d further µ-ops", got-decoded)
	}
}
