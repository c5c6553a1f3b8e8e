package eole_test

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"eole"
)

// Full runs of different lengths replaying one trace at once share its
// prediction track — whichever run comes first builds it whole while
// the others wait, and /v1/traces may ask its size meanwhile — and each
// still equals the execute-driven run, byte for byte. Run under -race,
// this is the track's concurrency wall.
func TestTrackConcurrentReplaysEqualLive(t *testing.T) {
	w, err := eole.WorkloadByName("hmmer")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := eole.NamedConfig("EOLE_4_64")
	if err != nil {
		t.Fatal(err)
	}
	const runs = 8
	warmup := func(i int) uint64 { return 500 + 1_500*uint64(i) }
	measure := func(i int) uint64 { return 9_000 - 700*uint64(i) }
	tr := eole.RecordTrace(w, warmup(runs-1)+measure(0)+eole.TraceSlack)

	replayed := make([]*eole.Report, runs)
	errs := make([]error, runs)
	var wg sync.WaitGroup
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			replayed[i], errs[i] = eole.Simulate(cfg, w, warmup(i), measure(i), eole.WithReplay(tr))
		}()
	}
	// The observer stops when the track is built or, should every replay
	// fail before building one, when the replays are done.
	done, observed := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(observed)
		for tr.TrackBytes() == 0 {
			select {
			case <-done:
				return
			default:
				runtime.Gosched()
			}
		}
	}()
	wg.Wait()
	close(done)
	<-observed
	for i := 0; i < runs; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		exec, err := eole.Simulate(cfg, w, warmup(i), measure(i))
		if err != nil {
			t.Fatal(err)
		}
		if be, br := reportJSON(t, exec), reportJSON(t, replayed[i]); !bytes.Equal(be, br) {
			t.Errorf("run %d (%d+%d): replay with the track differs from execute-driven:\nexec:   %s\nreplay: %s",
				i, warmup(i), measure(i), be, br)
		}
	}
	if tr.TrackBytes() == 0 {
		t.Error("the replays left no track on the trace")
	}
}
