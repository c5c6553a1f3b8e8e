package jobs

import (
	"context"
	"errors"
	"testing"
	"time"

	"eole"
	"eole/internal/simsvc"
)

func testService(t *testing.T, par int) *simsvc.Service {
	t.Helper()
	svc, err := simsvc.New(simsvc.Options{Parallelism: par})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc
}

func testRegistry(t *testing.T, svc *simsvc.Service) *Registry {
	t.Helper()
	g := New(svc, Options{})
	t.Cleanup(g.Close)
	return g
}

func req(t *testing.T, cfgName, wl string, measure uint64) simsvc.Request {
	t.Helper()
	cfg, err := eole.NamedConfig(cfgName)
	if err != nil {
		t.Fatal(err)
	}
	return simsvc.Request{Config: cfg, Workload: wl, Warmup: 1_000, Measure: measure}
}

// smallSweep is a fast 2×2 grid of distinct cells.
func smallSweep(t *testing.T, measure uint64) []simsvc.Request {
	t.Helper()
	var reqs []simsvc.Request
	for _, c := range []string{"EOLE_4_64", "Baseline_6_64"} {
		for _, w := range []string{"gzip", "art"} {
			reqs = append(reqs, req(t, c, w, measure))
		}
	}
	return reqs
}

// follow reads the job's log to its EventDone entry, checking that
// seqs are contiguous across wakeups, and returns the whole log (nil
// after reporting a stall; safe to call from any goroutine).
func follow(t *testing.T, j *Job) []Event {
	t.Helper()
	deadline := time.After(30 * time.Second)
	seen := 0
	for {
		evs, changed := j.EventsSince(seen)
		for _, ev := range evs {
			if ev.Seq != seen+1 {
				t.Errorf("seq jump %d -> %d", seen, ev.Seq)
			}
			seen = ev.Seq
			if ev.Type == EventDone {
				all, _ := j.EventsSince(0)
				return all
			}
		}
		select {
		case <-changed:
		case <-deadline:
			t.Errorf("log stalled at seq %d", seen)
			return nil
		}
	}
}

// TestJobLifecycle: a sweep job runs every cell, and its log holds one
// cell event per cell, each with a report, then EventDone with the
// counts; a late reader replays it and a cursor replays a suffix.
func TestJobLifecycle(t *testing.T) {
	g := testRegistry(t, testService(t, 2))
	reqs := smallSweep(t, 3_000)
	j, err := g.Create(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	evs := follow(t, j)
	if len(evs) != 5 {
		t.Fatalf("%d events, want 4 cells + 1 terminal", len(evs))
	}
	seenIdx := make(map[int]bool)
	for i, ev := range evs[:4] {
		if ev.Type != EventCell || ev.Cell == nil || len(ev.Cell.Encoded.Bytes()) == 0 || ev.Cell.Error != "" {
			t.Fatalf("event %d: %+v, want a cell event with a report", i, ev)
		}
		c := ev.Cell
		if want := reqs[c.Index]; c.Config != want.Config.Label() || c.Workload != want.Workload {
			t.Errorf("cell %d is %s on %s, want %s on %s", c.Index, c.Config, c.Workload, want.Config.Label(), want.Workload)
		}
		seenIdx[c.Index] = true
	}
	if last := evs[4]; last.Type != EventDone || last.Canceled || last.Completed != 4 || last.Failed != 0 {
		t.Errorf("terminal event %+v, want done 4/4", last)
	}
	if len(seenIdx) != 4 {
		t.Errorf("cell events cover %d distinct indexes, want 4", len(seenIdx))
	}
	if tail, _ := j.EventsSince(3); len(tail) != 2 || tail[0].Seq != 4 {
		t.Errorf("EventsSince(3) = %+v, want 2 events from seq 4", tail)
	}
	// Cursors out of range clamp rather than panic.
	if none, _ := j.EventsSince(99); len(none) != 0 {
		t.Errorf("EventsSince past the end returned %d events", len(none))
	}
	if all, _ := j.EventsSince(-1); len(all) != 5 {
		t.Errorf("EventsSince(-1) returned %d events, want 5", len(all))
	}
}

// TestJobCached: a job over already-simulated cells completes from
// cache and says so in its events.
func TestJobCached(t *testing.T) {
	g := testRegistry(t, testService(t, 2))
	r := req(t, "EOLE_4_64", "gzip", 3_000)
	for run := 0; run < 2; run++ {
		j, err := g.Create(context.Background(), []simsvc.Request{r})
		if err != nil {
			t.Fatal(err)
		}
		evs := follow(t, j)
		if len(evs) != 2 || evs[0].Cell.Cached != (run == 1) {
			t.Errorf("run %d: log %+v, want one cell with cached=%v", run, evs, run == 1)
		}
	}
}

// TestJobFailedCell: an unresolvable workload keys fine but fails at
// run time — its cell event carries the error and EventDone counts it.
func TestJobFailedCell(t *testing.T) {
	g := testRegistry(t, testService(t, 2))
	j, err := g.Create(context.Background(), []simsvc.Request{
		req(t, "EOLE_4_64", "gzip", 3_000),
		req(t, "EOLE_4_64", "no-such-workload", 3_000),
	})
	if err != nil {
		t.Fatal(err)
	}
	evs := follow(t, j)
	if len(evs) == 0 {
		t.FailNow()
	}
	var failed *CellEvent
	for _, ev := range evs {
		if ev.Type == EventCell && ev.Cell.Error != "" {
			failed = ev.Cell
		}
	}
	if failed == nil || failed.Index != 1 || failed.Encoded.Bytes() != nil {
		t.Errorf("failed cell event %+v, want index 1 with an error and no report", failed)
	}
	if last := evs[len(evs)-1]; last.Completed != 1 || last.Failed != 1 {
		t.Errorf("terminal event %+v, want 1 completed and 1 failed", last)
	}
}

// TestEventsSinceWakes: a reader blocked on the change channel is woken
// by the next append rather than having to poll.
func TestEventsSinceWakes(t *testing.T) {
	g := testRegistry(t, testService(t, 2))
	j, err := g.Create(context.Background(), []simsvc.Request{req(t, "EOLE_4_64", "gzip", 3_000)})
	if err != nil {
		t.Fatal(err)
	}
	evs, changed := j.EventsSince(0)
	if len(evs) == 0 {
		select {
		case <-changed:
		case <-time.After(30 * time.Second):
			t.Fatal("change channel never woke the reader")
		}
	}
	if evs := follow(t, j); len(evs) != 2 {
		t.Errorf("%d events, want 2", len(evs))
	}
}

// TestRegistryClose: Close cancels a running job — its log ends with a
// canceled EventDone and no cell event, and the service abandons the
// running simulation instead of finishing it for nobody — then refuses
// new work.
func TestRegistryClose(t *testing.T) {
	svc := testService(t, 1)
	g := New(svc, Options{})
	j, err := g.Create(context.Background(), []simsvc.Request{req(t, "EOLE_4_64", "mcf", 3_000_000)})
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); svc.InFlight() == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	g.Close()
	evs, _ := j.EventsSince(0)
	if len(evs) != 1 || evs[0].Type != EventDone || !evs[0].Canceled || evs[0].Completed != 0 || evs[0].Failed != 0 {
		t.Fatalf("log after Close %+v, want one canceled EventDone", evs)
	}
	for deadline := time.Now().Add(10 * time.Second); svc.Stats().SimsAbandoned == 0 && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	if ab := svc.Stats().SimsAbandoned; ab < 1 {
		t.Errorf("sims_abandoned = %d after Close, want >= 1", ab)
	}
	if _, err := g.Create(context.Background(), []simsvc.Request{req(t, "EOLE_4_64", "gzip", 3_000)}); !errors.Is(err, ErrClosed) {
		t.Errorf("Create after Close: %v, want ErrClosed", err)
	}
	g.Close() // idempotent
}

// TestCreateEmpty rejects an empty cell list up front.
func TestCreateEmpty(t *testing.T) {
	g := testRegistry(t, testService(t, 1))
	if _, err := g.Create(context.Background(), nil); err == nil {
		t.Fatal("empty create must fail")
	}
}
