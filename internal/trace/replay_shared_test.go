package trace

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"eole/internal/prog"
	"eole/internal/workload"
)

// Replay-vs-execute equality: a recorded trace replayed through a
// cursor must reproduce the live machine's µ-op stream exactly — every
// field, including the end-of-stream position. The trace is pushed
// through Write/Read first so the comparison covers the file codec
// and the scan that rebuilds the chunk marks. The distributed sweep
// and the sampled-simulation fast path both depend on this.
func TestReplayMatchesExecution(t *testing.T) {
	const n = 40_000
	for _, w := range workload.All()[:4] {
		var buf bytes.Buffer
		if err := Record(w, n).Write(&buf); err != nil {
			t.Fatalf("%s: Write: %v", w.Name, err)
		}
		tr, err := Read(&buf)
		if err != nil {
			t.Fatalf("%s: Read: %v", w.Name, err)
		}
		r, err := tr.SourceFor(w)
		if err != nil {
			t.Fatalf("%s: SourceFor: %v", w.Name, err)
		}
		live := prog.MachineSource{M: w.NewMachine()}
		var ru, lu prog.MicroOp
		for i := 0; ; i++ {
			rok := r.Next(&ru)
			lok := i < n && live.Next(&lu)
			if rok != lok {
				t.Fatalf("%s: stream length mismatch at µ-op %d (replay=%v live=%v)", w.Name, i, rok, lok)
			}
			if !rok {
				break
			}
			if ru != lu {
				t.Fatalf("%s: µ-op %d mismatch\n replay: %+v\n   live: %+v", w.Name, i, ru, lu)
			}
		}
	}
}

// One Trace must serve many cursors concurrently: the sweep workers
// share a process-wide trace cache and each simulation draws its own
// cursor. Each cursor is single-goroutine, but record cursors all read
// the trace's shared decoded chunks, and race to be the one that fills
// each — run under -race this verifies the sharing is sound, and
// holding every cursor's expanded records, field for field, to the
// fetch records of a streaming decode verifies cursors don't perturb
// each other.
func TestConcurrentReplayCursors(t *testing.T) {
	const n = 20_000
	w := workload.All()[0]
	tr := Record(w, n)

	var want []prog.FetchOp
	ref, err := tr.NewSource()
	if err != nil {
		t.Fatal(err)
	}
	for u := (prog.MicroOp{}); ref.Next(&u); {
		want = append(want, u.Fetch())
	}

	const workers = 8
	errs := make([]string, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		r, err := tr.RecordsFor(w)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, r *Records) {
			defer wg.Done()
			read := 0
			for ops, addrs, seq := r.Next(); len(ops) > 0; ops, addrs, seq = r.Next() {
				for j, got := range expand(w.Program.FetchTemplate(), ops, addrs, seq) {
					if k := int(seq) + j; k >= len(want) || got != want[k] {
						errs[i] = fmt.Sprintf("at seq %d reads %+v", k, got)
						return
					}
				}
				read += len(ops)
			}
			if read != len(want) {
				errs[i] = fmt.Sprintf("read %d of %d records", read, len(want))
			}
		}(i, r)
	}
	wg.Wait()
	for i, e := range errs {
		if e != "" {
			t.Fatalf("cursor %d %s", i, e)
		}
	}
}
