package core

import (
	"testing"

	"eole/internal/prog"
	"eole/internal/trace"
)

// A full run reads its trace's shared fetch records in place — its
// record cursor hands out views of them — and every other full run over
// the trace reads the same chunks, so the core must never write through
// a view. Four configs' full cells replay one trace; then every decoded
// record must equal the fetch record of a fresh streaming decode of the
// same range, which reads the payload and no chunk.
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
	for seq := uint64(0); seq < decoded; {
		b := recs.Next(srcBatchSize)
		if len(b) == 0 {
			t.Fatalf("record cursor dry at %d of %d decoded µ-ops", seq, decoded)
		}
		for i := range b {
			if !stream.Next(&want) || b[i] != want.Fetch() {
				t.Fatalf("decoded chunk holds at seq %d\n %+v\nwhere the payload decodes to\n %+v", seq+uint64(i), b[i], want.Fetch())
			}
		}
		seq += uint64(len(b))
	}
	if got := tr.DecodedUops(); got != decoded {
		t.Fatalf("the comparison decoded %d further µ-ops", got-decoded)
	}
}
