package jobs

import (
	"context"
	"errors"
	"testing"
	"time"

	"eole"
	"eole/internal/obs"
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

func testRegistry(t *testing.T, svc *simsvc.Service, opts Options) *Registry {
	t.Helper()
	g := New(svc, opts)
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

func waitState(t *testing.T, j *Job, want State) Status {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job stuck in %q waiting for %q", j.Status(false).State, want)
	}
	st := j.Status(true)
	if st.State != want {
		t.Fatalf("terminal state %q, want %q", st.State, want)
	}
	return st
}

// TestJobLifecycle: a sweep job runs every cell, the event log holds
// one cell event per cell plus a terminal frame with contiguous seqs,
// and the status snapshot agrees with the log.
func TestJobLifecycle(t *testing.T) {
	g := testRegistry(t, testService(t, 2), Options{})
	reqs := smallSweep(t, 3_000)
	j, err := g.Create(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if j.ID() == "" {
		t.Fatal("job has no ID")
	}
	st := waitState(t, j, StateDone)
	if st.CellsTotal != 4 || st.CellsCompleted != 4 || st.CellsFailed != 0 {
		t.Fatalf("cells %d/%d done, %d failed, want 4/4 and 0", st.CellsCompleted, st.CellsTotal, st.CellsFailed)
	}
	if st.FinishedAtUnixMS == 0 || st.FinishedAtUnixMS < st.CreatedAtUnixMS {
		t.Errorf("finished stamp %d inconsistent with created %d", st.FinishedAtUnixMS, st.CreatedAtUnixMS)
	}
	for i, c := range st.Cells {
		if !c.Done || c.Error != "" {
			t.Errorf("cell %d (%s/%s) not done: %+v", i, c.Config, c.Workload, c)
		}
	}

	evs, _ := j.EventsSince(0)
	if len(evs) != 5 {
		t.Fatalf("%d events, want 4 cells + 1 terminal", len(evs))
	}
	seenIdx := make(map[int]bool)
	for i, ev := range evs {
		if ev.Seq != i+1 {
			t.Errorf("event %d has seq %d, want contiguous 1-based", i, ev.Seq)
		}
		if ev.Job != j.ID() {
			t.Errorf("event %d stamped job %q, want %q", i, ev.Job, j.ID())
		}
		if i < 4 {
			if ev.Type != EventCell || ev.Cell == nil || len(ev.Cell.Encoded.Bytes()) == 0 {
				t.Fatalf("event %d: %+v, want a cell event with a report", i, ev)
			}
			seenIdx[ev.Cell.Index] = true
		}
	}
	last := evs[len(evs)-1]
	if last.Type != EventDone || last.State != StateDone || last.Completed != 4 || last.Total != 4 {
		t.Errorf("terminal frame %+v, want done 4/4", last)
	}
	if len(seenIdx) != 4 {
		t.Errorf("cell events cover %d distinct indexes, want 4", len(seenIdx))
	}

	// Late attach on a terminal job replays the full log; a positive
	// cursor replays only the suffix.
	evs2, _ := j.EventsSince(0)
	if len(evs2) != 5 {
		t.Errorf("late attach replayed %d events, want 5", len(evs2))
	}
	tail, _ := j.EventsSince(3)
	if len(tail) != 2 || tail[0].Seq != 4 {
		t.Errorf("EventsSince(3) = %d events starting at %d, want 2 from seq 4", len(tail), tail[0].Seq)
	}
	// A cursor past the end returns nothing rather than panicking.
	if none, _ := j.EventsSince(99); len(none) != 0 {
		t.Errorf("EventsSince past the end returned %d events", len(none))
	}
}

// TestJobCached: a job over already-simulated cells completes from
// cache and says so in its events.
func TestJobCached(t *testing.T) {
	svc := testService(t, 2)
	g := testRegistry(t, svc, Options{})
	r := req(t, "EOLE_4_64", "gzip", 3_000)
	j1, err := g.Create(context.Background(), []simsvc.Request{r})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j1, StateDone)
	j2, err := g.Create(context.Background(), []simsvc.Request{r})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j2, StateDone)
	evs, _ := j2.EventsSince(0)
	if len(evs) != 2 || !evs[0].Cell.Cached {
		t.Errorf("re-run cell not marked cached: %+v", evs[0])
	}
}

// TestJobFailedCell: an unresolvable workload keys fine but fails at
// run time — the job ends failed, the cell event carries the error,
// and the terminal frame counts it.
func TestJobFailedCell(t *testing.T) {
	g := testRegistry(t, testService(t, 2), Options{})
	reqs := []simsvc.Request{
		req(t, "EOLE_4_64", "gzip", 3_000),
		req(t, "EOLE_4_64", "no-such-workload", 3_000),
	}
	j, err := g.Create(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	st := waitState(t, j, StateFailed)
	if st.CellsCompleted != 1 || st.CellsFailed != 1 {
		t.Fatalf("cells %d done / %d failed, want 1/1", st.CellsCompleted, st.CellsFailed)
	}
	if st.Cells[1].Error == "" || st.Cells[1].Done {
		t.Errorf("failed cell status: %+v", st.Cells[1])
	}
	evs, _ := j.EventsSince(0)
	var sawErr bool
	for _, ev := range evs {
		if ev.Type == EventCell && ev.Cell.Error != "" {
			sawErr = true
		}
	}
	if !sawErr {
		t.Error("no cell event carried the failure")
	}
	if last := evs[len(evs)-1]; last.State != StateFailed || last.Failed != 1 {
		t.Errorf("terminal frame %+v, want failed with 1 failed cell", last)
	}
}

// TestJobCancel: canceling a running job reaches a canceled terminal
// state, the terminal event says so, and the underlying simulation is
// actually abandoned (sims_abandoned ticks) instead of running to
// completion for nobody.
func TestJobCancel(t *testing.T) {
	svc := testService(t, 1)
	g := testRegistry(t, svc, Options{})
	// One long cell: parallelism 1 guarantees it is the running one.
	j, err := g.Create(context.Background(), []simsvc.Request{req(t, "EOLE_4_64", "mcf", 3_000_000)})
	if err != nil {
		t.Fatal(err)
	}
	// Let the runner actually start the cell before canceling.
	deadline := time.Now().Add(10 * time.Second)
	for svc.InFlight() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if _, ok := g.Cancel(j.ID()); !ok {
		t.Fatal("Cancel says the job does not exist")
	}
	st := waitState(t, j, StateCanceled)
	if st.CellsCompleted != 0 {
		t.Errorf("%d cells completed on a canceled job", st.CellsCompleted)
	}
	evs, _ := j.EventsSince(0)
	if len(evs) != 1 || evs[0].Type != EventDone || evs[0].State != StateCanceled {
		t.Fatalf("canceled job log %+v, want a single canceled terminal frame", evs)
	}
	// The cell's leave hook runs on its own goroutine once the job's
	// context dies, so allow the abandonment a moment.
	deadline = time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if svc.Stats().SimsAbandoned >= 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if ab := svc.Stats().SimsAbandoned; ab < 1 {
		t.Errorf("sims_abandoned = %d after cancel, want >= 1", ab)
	}
	if got := g.Stats().Canceled; got != 1 {
		t.Errorf("registry canceled counter = %d, want 1", got)
	}
	// Cancel is idempotent and a no-op on terminal jobs.
	if _, ok := g.Cancel(j.ID()); !ok {
		t.Error("second cancel must still find the job")
	}
	if got := g.Stats().Canceled; got != 1 {
		t.Errorf("terminal cancel counted: %d, want still 1", got)
	}
}

// TestEventsSinceWakes: a consumer blocked on the change channel is
// woken by the next append rather than having to poll.
func TestEventsSinceWakes(t *testing.T) {
	g := testRegistry(t, testService(t, 2), Options{})
	j, err := g.Create(context.Background(), []simsvc.Request{req(t, "EOLE_4_64", "gzip", 3_000)})
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	deadline := time.After(30 * time.Second)
	for {
		evs, changed := j.EventsSince(seen)
		for _, ev := range evs {
			seen = ev.Seq
			if ev.Type == EventDone {
				if seen != 2 {
					t.Errorf("terminal at seq %d, want 2", seen)
				}
				return
			}
		}
		select {
		case <-changed:
		case <-deadline:
			t.Fatal("change channel never woke the consumer")
		}
	}
}

// TestRegistryTTL: terminal jobs expire lazily after the TTL; active
// jobs never do.
func TestRegistryTTL(t *testing.T) {
	g := testRegistry(t, testService(t, 2), Options{TTL: 50 * time.Millisecond})
	j, err := g.Create(context.Background(), []simsvc.Request{req(t, "EOLE_4_64", "gzip", 3_000)})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j, StateDone)
	if _, ok := g.Get(j.ID()); !ok {
		t.Fatal("terminal job gone before its TTL")
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if _, ok := g.Get(j.ID()); !ok {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, ok := g.Get(j.ID()); ok {
		t.Fatal("terminal job survived its TTL")
	}
	if st := g.Stats(); st.Expired != 1 || st.Retained != 0 {
		t.Errorf("stats after expiry: %+v", st)
	}
}

// TestRegistryEviction: at MaxJobs the oldest terminal job is evicted
// to admit a new one; with only active jobs retained, Create sheds
// load with ErrBusy.
func TestRegistryEviction(t *testing.T) {
	svc := testService(t, 1)
	g := testRegistry(t, svc, Options{MaxJobs: 2})
	fast := []simsvc.Request{req(t, "EOLE_4_64", "gzip", 3_000)}
	j1, err := g.Create(context.Background(), fast)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j1, StateDone)
	j2, err := g.Create(context.Background(), []simsvc.Request{req(t, "Baseline_6_64", "gzip", 3_000)})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, j2, StateDone)
	// Full of terminal jobs: the third evicts the oldest (j1).
	j3, err := g.Create(context.Background(), []simsvc.Request{req(t, "EOLE_4_64", "art", 3_000)})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := g.Get(j1.ID()); ok {
		t.Error("oldest terminal job not evicted at the bound")
	}
	if _, ok := g.Get(j2.ID()); !ok {
		t.Error("newer terminal job evicted out of order")
	}
	if g.Stats().Evicted != 1 {
		t.Errorf("evicted counter = %d, want 1", g.Stats().Evicted)
	}
	waitState(t, j3, StateDone)

	// Fill with active (long) jobs, then overflow: ErrBusy.
	long := func(wl string) []simsvc.Request {
		return []simsvc.Request{req(t, "EOLE_4_64", wl, 3_000_000)}
	}
	a, err := g.Create(context.Background(), long("mcf"))
	if err != nil {
		t.Fatal(err)
	}
	// A real workload: an unknown one fails the moment its runner wins
	// the race to the single worker, and a failed job is evictable.
	b, err := g.Create(context.Background(), long("milc"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Create(context.Background(), long("swim")); !errors.Is(err, ErrBusy) {
		t.Fatalf("overflow with all-active registry: %v, want ErrBusy", err)
	}
	a.Cancel()
	b.Cancel()
	waitState(t, a, StateCanceled)
	waitState(t, b, StateCanceled)
}

// TestRegistryClose: Close cancels active jobs, waits for their
// runners, and refuses new work.
func TestRegistryClose(t *testing.T) {
	svc := testService(t, 1)
	g := New(svc, Options{})
	j, err := g.Create(context.Background(), []simsvc.Request{req(t, "EOLE_4_64", "mcf", 3_000_000)})
	if err != nil {
		t.Fatal(err)
	}
	g.Close()
	select {
	case <-j.Done():
	default:
		t.Fatal("Close returned with a job still running")
	}
	if st := j.Status(false); st.State != StateCanceled {
		t.Errorf("job state after Close: %q, want canceled", st.State)
	}
	if _, err := g.Create(context.Background(), []simsvc.Request{req(t, "EOLE_4_64", "gzip", 3_000)}); !errors.Is(err, ErrClosed) {
		t.Errorf("Create after Close: %v, want ErrClosed", err)
	}
}

// TestRequestIDPropagation: the creating request's ID is carried into
// the job, its status, and every event — one trace across the async
// boundary.
func TestRequestIDPropagation(t *testing.T) {
	g := testRegistry(t, testService(t, 2), Options{})
	ctx := obs.WithRequestID(context.Background(), "test-rid-42")
	j, err := g.Create(ctx, []simsvc.Request{req(t, "EOLE_4_64", "gzip", 3_000)})
	if err != nil {
		t.Fatal(err)
	}
	st := waitState(t, j, StateDone)
	if st.RequestID != "test-rid-42" {
		t.Errorf("status request_id %q", st.RequestID)
	}
	evs, _ := j.EventsSince(0)
	for _, ev := range evs {
		if ev.RequestID != "test-rid-42" {
			t.Errorf("event %d request_id %q", ev.Seq, ev.RequestID)
		}
	}
}

// TestListOrder: List returns oldest-first with stable ties and
// reflects live state.
func TestListOrder(t *testing.T) {
	g := testRegistry(t, testService(t, 2), Options{})
	var ids []string
	for _, wl := range []string{"gzip", "art", "hmmer"} {
		j, err := g.Create(context.Background(), []simsvc.Request{req(t, "EOLE_4_64", wl, 3_000)})
		if err != nil {
			t.Fatal(err)
		}
		waitState(t, j, StateDone)
		ids = append(ids, j.ID())
	}
	list := g.List()
	if len(list) != 3 {
		t.Fatalf("%d jobs listed, want 3", len(list))
	}
	for i, st := range list {
		if i > 0 && st.CreatedAtUnixMS < list[i-1].CreatedAtUnixMS {
			t.Errorf("list out of order at %d", i)
		}
		if st.Cells != nil {
			t.Errorf("list snapshot %d carries per-cell detail", i)
		}
		_ = ids
	}
	if st := g.Stats(); st.Created != 3 || st.Retained != 3 || st.Active != 0 {
		t.Errorf("stats %+v, want 3 created/retained, 0 active", st)
	}
}

// TestCreateEmpty rejects an empty cell list up front.
func TestCreateEmpty(t *testing.T) {
	g := testRegistry(t, testService(t, 1), Options{})
	if _, err := g.Create(context.Background(), nil); err == nil {
		t.Fatal("empty create must fail")
	}
}
