package simsvc

import (
	"context"
	"encoding/json"
	"errors"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"eole"
	"eole/internal/artifact"
)

// testReq is a tiny but real simulation: long enough to exercise the
// pipeline, short enough to keep the suite fast.
func testReq(t *testing.T, cfgName, wl string) Request {
	t.Helper()
	cfg, err := eole.NamedConfig(cfgName)
	if err != nil {
		t.Fatal(err)
	}
	return Request{Config: cfg, Workload: wl, Warmup: 2_000, Measure: 5_000}
}

// newTestService starts a service that is closed when the test ends,
// and checks then that nothing it started outlives Close: the
// goroutine count is back to what it was before New.
func newTestService(t *testing.T, opts Options) *Service {
	t.Helper()
	before := runtime.NumGoroutine()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		s.Close()
		// Leave hooks of contexts canceled just now are still exiting.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("goroutine leak: %d before New, %d after Close", before, after)
		}
	})
	return s
}

func TestKeyDeterminism(t *testing.T) {
	a := testReq(t, "EOLE_4_64", "mcf")
	b := testReq(t, "EOLE_4_64", "mcf")
	if KeyOf(a) != KeyOf(b) {
		t.Fatal("identical requests must share a key")
	}
	// Short and full workload names are the same content.
	full := a
	full.Workload = "429.mcf"
	if KeyOf(full) != KeyOf(a) {
		t.Error("workload aliases must share a key")
	}
	// Any semantic difference must change the key.
	diff := a
	diff.Measure++
	if KeyOf(diff) == KeyOf(a) {
		t.Error("different measure must change the key")
	}
	other := testReq(t, "Baseline_6_64", "mcf")
	if KeyOf(other) == KeyOf(a) {
		t.Error("different config must change the key")
	}
	// The display name is a label, not machine semantics: renamed but
	// identically-parameterized configs must share one simulation
	// (Figure 11's "_4banks_4ports" vs Figure 12's "_4ports_4banks").
	renamed := a
	renamed.Config.Name = "EOLE_4_64_alias"
	if KeyOf(renamed) != KeyOf(a) {
		t.Error("config name must not change the key")
	}
}

// TestCacheHitDeterminism is the headline acceptance check: the same
// key simulates exactly once and repeated submissions get the
// identical report.
func TestCacheHitDeterminism(t *testing.T) {
	s := newTestService(t, Options{Parallelism: 2})
	ctx := context.Background()
	req := testReq(t, "EOLE_4_64", "crafty")

	j1, err := s.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := j1.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := s.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := j2.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Error("cache hit must return the shared report")
	}
	if !j2.Cached() {
		t.Error("second submission must be marked cached")
	}
	if j1.Status() != StatusDone || j2.Status() != StatusDone {
		t.Errorf("statuses: %v, %v", j1.Status(), j2.Status())
	}
	st := s.Stats()
	if st.SimsRun != 1 {
		t.Errorf("SimsRun = %d, want exactly 1", st.SimsRun)
	}
	if st.CacheHits != 1 {
		t.Errorf("CacheHits = %d, want 1", st.CacheHits)
	}
	if st.UopsPerSec <= 0 {
		t.Errorf("UopsPerSec = %v, want > 0", st.UopsPerSec)
	}
}

// TestSweepFanOut runs the same sweep — with a duplicated baseline
// column — across worker-pool widths and checks both the results and
// the one-sim-per-unique-key invariant.
func TestSweepFanOut(t *testing.T) {
	base := testReq(t, "Baseline_6_64", "gzip")
	reqs := []Request{
		base, // baseline
		testReq(t, "EOLE_4_64", "gzip"),
		testReq(t, "EOLE_6_64", "gzip"),
		base, // repeated baseline: must not re-simulate
		testReq(t, "Baseline_VP_6_64", "gzip"),
	}
	const unique = 4
	var want []*eole.Report
	for _, par := range []int{1, 2, 4} {
		s := newTestService(t, Options{Parallelism: par})
		sweep, err := s.SubmitSweep(context.Background(), reqs)
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		reports, err := sweep.Wait(context.Background())
		if err != nil {
			t.Fatalf("par=%d: %v", par, err)
		}
		if len(reports) != len(reqs) {
			t.Fatalf("par=%d: %d reports, want %d", par, len(reports), len(reqs))
		}
		if reports[0] != reports[3] {
			t.Errorf("par=%d: duplicated request must share one report", par)
		}
		st := s.Stats()
		if st.SimsRun != unique {
			t.Errorf("par=%d: SimsRun = %d, want %d (one per unique key)", par, st.SimsRun, unique)
		}
		// The simulator is deterministic: every pool width must
		// produce identical numbers.
		if want == nil {
			want = reports
		} else {
			for i := range reports {
				if reports[i].IPC != want[i].IPC || reports[i].Cycles != want[i].Cycles {
					t.Errorf("par=%d: report %d differs across pool widths", par, i)
				}
			}
		}
	}
}

func TestCancellationMidSweep(t *testing.T) {
	// One worker and a deliberately long head job: everything behind
	// it is still queued when we cancel.
	s := newTestService(t, Options{Parallelism: 1})
	ctx, cancel := context.WithCancel(context.Background())
	head := testReq(t, "Baseline_6_64", "namd")
	head.Measure = 200_000
	reqs := []Request{head}
	for _, wl := range []string{"art", "milc", "hmmer", "sjeng", "vortex"} {
		reqs = append(reqs, testReq(t, "Baseline_6_64", wl))
	}
	sweep, err := s.SubmitSweep(ctx, reqs)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	reports, err := sweep.Wait(context.Background())
	if err == nil {
		t.Fatal("canceled sweep must report an error")
	}
	canceled := 0
	for i, j := range sweep.Jobs {
		<-j.Done()
		if _, jerr := j.Result(); errors.Is(jerr, context.Canceled) {
			canceled++
			if reports[i] != nil {
				t.Errorf("job %d: canceled but has a report", i)
			}
			if j.Status() != StatusCanceled {
				t.Errorf("job %d: status %v, want canceled", i, j.Status())
			}
		}
	}
	if canceled == 0 {
		t.Error("no job observed the cancellation")
	}
	if st := s.Stats(); st.JobsCanceled == 0 {
		t.Error("JobsCanceled counter did not move")
	}
}

func TestSingleFlightCoalescing(t *testing.T) {
	// With one worker and a slow head job, identical submissions queue
	// behind it and must coalesce onto one task.
	s := newTestService(t, Options{Parallelism: 1})
	ctx := context.Background()
	blocker := testReq(t, "Baseline_6_64", "namd")
	blocker.Measure = 100_000
	if _, err := s.Submit(ctx, blocker); err != nil {
		t.Fatal(err)
	}
	req := testReq(t, "EOLE_4_64", "art")
	var jobs []*Job
	for i := 0; i < 5; i++ {
		j, err := s.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	var first *eole.Report
	for i, j := range jobs {
		r, err := j.Wait(ctx)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if first == nil {
			first = r
		} else if r != first {
			t.Errorf("job %d: coalesced jobs must share one report", i)
		}
	}
	st := s.Stats()
	if got := st.SimsRun; got != 2 { // blocker + one for the 5 coalesced
		t.Errorf("SimsRun = %d, want 2", got)
	}
	if st.Coalesced != 4 {
		t.Errorf("Coalesced = %d, want 4", st.Coalesced)
	}
}

// TestCanceledOriginatorKeepsCoalescers: when the Submit that created
// a task is canceled while the task is queued, its own job ends
// canceled but jobs coalesced onto that task by other callers must
// still run.
func TestCanceledOriginatorKeepsCoalescers(t *testing.T) {
	s := newTestService(t, Options{Parallelism: 1})
	ctx := context.Background()
	// The blocker keeps the single worker busy until the originator has
	// been canceled, so the target is still queued at that point.
	blockCtx, unblock := context.WithCancel(ctx)
	defer unblock()
	blocker := testReq(t, "Baseline_6_64", "namd")
	blocker.Measure = 50_000_000
	if _, err := s.Submit(blockCtx, blocker); err != nil {
		t.Fatal(err)
	}
	target := testReq(t, "EOLE_4_64", "gzip")
	ctxA, cancelA := context.WithCancel(ctx)
	defer cancelA()
	jA, err := s.Submit(ctxA, target)
	if err != nil {
		t.Fatal(err)
	}
	jB, err := s.Submit(ctx, target) // coalesces onto the queued task
	if err != nil {
		t.Fatal(err)
	}
	cancelA()
	select {
	case <-jA.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("canceled originator still pending after 2s")
	}
	if _, err := jA.Result(); !errors.Is(err, context.Canceled) {
		t.Fatalf("originator job = %v, want context.Canceled", err)
	}
	if jB.Status() != StatusQueued {
		t.Fatalf("coalesced job is %v with the worker still held, want queued", jB.Status())
	}
	unblock()
	r, err := jB.Wait(ctx)
	if err != nil {
		t.Fatalf("coalesced job must survive the originator's cancel: %v", err)
	}
	if r == nil || r.IPC <= 0 {
		t.Error("coalesced job returned an invalid report")
	}
}

// TestCanceledQueuedJobLeavesAtOnce: a job canceled while queued behind
// a busy worker completes and gives its queue slot back immediately,
// not when a worker next reaches it.
func TestCanceledQueuedJobLeavesAtOnce(t *testing.T) {
	s := newTestService(t, Options{Parallelism: 1})
	blockCtx, unblock := context.WithCancel(context.Background())
	defer unblock()
	blocker := testReq(t, "Baseline_6_64", "namd")
	blocker.Measure = 50_000_000
	jBlock, err := s.Submit(blockCtx, blocker)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for jBlock.Status() != StatusRunning {
		if time.Now().After(deadline) {
			t.Fatal("blocker never started running")
		}
		time.Sleep(2 * time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	j, err := s.Submit(ctx, testReq(t, "EOLE_4_64", "gzip"))
	if err != nil {
		t.Fatal(err)
	}
	if got := s.QueueLen(); got != 1 {
		t.Fatalf("QueueLen = %d behind a busy worker, want 1", got)
	}
	cancel()
	select {
	case <-j.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("canceled queued job still pending after 2s")
	}
	if _, err := j.Result(); !errors.Is(err, context.Canceled) {
		t.Errorf("job error = %v, want context.Canceled", err)
	}
	if jBlock.Status() != StatusRunning {
		t.Errorf("blocker is %v, want still running", jBlock.Status())
	}
	if got := s.QueueLen(); got != 0 {
		t.Errorf("QueueLen = %d after the only waiter left, want 0", got)
	}
	if got := s.InFlight(); got != 1 {
		t.Errorf("InFlight = %d, want 1 (the blocker)", got)
	}
}

func TestDiskSpill(t *testing.T) {
	dir := t.TempDir()
	req := testReq(t, "EOLE_4_64", "gzip")
	ctx := context.Background()

	s1 := newTestService(t, Options{Parallelism: 1, Artifacts: dirStore(t, dir)})
	j, err := s1.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := j.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	s1.Close()

	// A second service over the same directory must not re-simulate.
	s2 := newTestService(t, Options{Parallelism: 1, Artifacts: dirStore(t, dir)})
	j2, err := s2.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := j2.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	st := s2.Stats()
	if st.SimsRun != 0 {
		t.Errorf("SimsRun = %d, want 0 (served from disk)", st.SimsRun)
	}
	if st.DiskHits != 1 {
		t.Errorf("DiskHits = %d, want 1", st.DiskHits)
	}
	if r2.IPC != r1.IPC || r2.Cycles != r1.Cycles || r2.Raw() != r1.Raw() {
		t.Error("disk round-trip must preserve the report, including raw counters")
	}
	// And the JSON itself must round-trip the whole report.
	b, err := json.Marshal(r1)
	if err != nil {
		t.Fatal(err)
	}
	var back eole.Report
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Raw() != r1.Raw() {
		t.Error("Report JSON must carry the raw counter set")
	}
}

// TestCacheEviction: the in-memory cache is bounded FIFO; evicted
// entries fall back to disk when a spill directory is configured.
func TestCacheEviction(t *testing.T) {
	dir := t.TempDir()
	s := newTestService(t, Options{Parallelism: 1, CacheEntries: 2, Artifacts: dirStore(t, dir)})
	ctx := context.Background()
	reqs := []Request{
		testReq(t, "Baseline_6_64", "gzip"),
		testReq(t, "EOLE_4_64", "gzip"),
		testReq(t, "EOLE_6_64", "gzip"),
	}
	for _, req := range reqs {
		j, err := s.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if size := s.Stats().CacheSize; size != 2 {
		t.Errorf("cache size = %d, want 2 (bounded)", size)
	}
	// The first request was evicted from memory but spilled to disk.
	j, err := s.Submit(ctx, reqs[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.SimsRun != 3 {
		t.Errorf("SimsRun = %d, want 3 (evicted entry served from disk, not re-simulated)", st.SimsRun)
	}
	if st.DiskHits != 1 {
		t.Errorf("DiskHits = %d, want 1", st.DiskHits)
	}
}

func TestSubmitErrors(t *testing.T) {
	s := newTestService(t, Options{Parallelism: 1})
	ctx := context.Background()
	// Invalid workload fails the job, not the process.
	bad := testReq(t, "EOLE_4_64", "crafty")
	bad.Workload = "no-such-benchmark"
	j, err := s.Submit(ctx, bad)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(ctx); err == nil {
		t.Fatal("unknown workload must fail the job")
	}
	if j.Status() != StatusFailed {
		t.Errorf("status %v, want failed", j.Status())
	}
	// Invalid config likewise.
	badCfg := testReq(t, "EOLE_4_64", "crafty")
	badCfg.Config.IssueWidth = -1
	j2, err := s.Submit(ctx, badCfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j2.Wait(ctx); err == nil {
		t.Fatal("invalid config must fail the job")
	}
	if st := s.Stats(); st.JobsFailed != 2 {
		t.Errorf("JobsFailed = %d, want 2", st.JobsFailed)
	}
}

func TestCloseRejectsAndDrains(t *testing.T) {
	s, err := New(Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	j, err := s.Submit(ctx, testReq(t, "Baseline_6_64", "gzip"))
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	// The in-flight job either finished or was abandoned with ErrClosed
	// — but it must be resolved, not leaked.
	select {
	case <-j.Done():
	default:
		t.Fatal("Close must resolve every job")
	}
	if _, err := s.Submit(ctx, testReq(t, "Baseline_6_64", "art")); !errors.Is(err, ErrClosed) {
		t.Errorf("Submit after Close = %v, want ErrClosed", err)
	}
	s.Close() // idempotent
}

func TestWaitRespectsContext(t *testing.T) {
	s := newTestService(t, Options{Parallelism: 1})
	req := testReq(t, "Baseline_6_64", "namd")
	req.Measure = 500_000
	j, err := s.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if _, err := j.Wait(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("Wait = %v, want deadline exceeded", err)
	}
}

// recordingPeer is an artifact peer that holds nothing and notes what
// it is asked.
type recordingPeer struct {
	mu    sync.Mutex
	calls []string
}

func (p *recordingPeer) note(op string, kind artifact.Kind) {
	p.mu.Lock()
	p.calls = append(p.calls, op+" "+string(kind))
	p.mu.Unlock()
}

func (p *recordingPeer) Fetch(_ context.Context, kind artifact.Kind, _ string) ([]byte, error) {
	p.note("fetch", kind)
	return nil, artifact.ErrNotFound
}

func (p *recordingPeer) Push(_ context.Context, kind artifact.Kind, _ string, _ []byte) error {
	p.note("push", kind)
	return nil
}

// TestRelayedRequestKeepsItsResultOffThePeer: a request whose sender
// owns the result tier (Relayed) neither asks the artifact peer for the
// result nor pushes it there; the trace still travels. The same cell
// asked for directly uses the peer both ways, and the flag is not part
// of the key.
func TestRelayedRequestKeepsItsResultOffThePeer(t *testing.T) {
	run := func(relayed bool) []string {
		peer := &recordingPeer{}
		store, err := artifact.Open(artifact.Options{Peer: peer})
		if err != nil {
			t.Fatal(err)
		}
		s := newTestService(t, Options{Parallelism: 1, Artifacts: store})
		req := testReq(t, "EOLE_4_64", "gzip")
		req.Relayed = relayed
		j, err := s.Submit(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		s.Close() // the spill runs after the waiters are released
		peer.mu.Lock()
		defer peer.mu.Unlock()
		return peer.calls
	}
	direct, relayed := run(false), run(true)
	if want := []string{"fetch result", "fetch trace", "push trace", "push result"}; !slices.Equal(direct, want) {
		t.Errorf("direct request: peer saw %v, want %v", direct, want)
	}
	if want := []string{"fetch trace", "push trace"}; !slices.Equal(relayed, want) {
		t.Errorf("relayed request: peer saw %v, want %v", relayed, want)
	}
	a := testReq(t, "EOLE_4_64", "gzip")
	b := a
	b.Relayed = true
	if KeyOf(a) != KeyOf(b) {
		t.Error("Relayed must not change the content address")
	}
}
