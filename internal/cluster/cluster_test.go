package cluster

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"eole"
	"eole/internal/artifact"
	"eole/internal/simsvc"
)

// stubWorker is a fake eoled serving the one route the coordinator
// dispatches to, POST /v1/simulate, with a deterministic fabricated
// report as the body (plus /v1/healthz for the prober). Healthy by
// default; behavior is swappable per test via the hooks.
type stubWorker struct {
	srv     *httptest.Server
	healthy atomic.Bool

	calls   atomic.Int64 // POST /v1/simulate calls, refused ones included
	relayed atomic.Int64 // calls whose body carried "relayed": true
	conns   atomic.Int64 // connections accepted
	// onCall, when non-nil, intercepts a dispatch (the counters have
	// already been bumped). Return true when the hook wrote the
	// response itself.
	onCall atomic.Pointer[func(w http.ResponseWriter, call int64, req simulateWire) bool]
	// onRun, when non-nil, is the stub's "simulation": it runs before
	// the report is written, under the dispatch request's context.
	onRun atomic.Pointer[func(ctx context.Context, req simulateWire)]
	// report, when non-nil, replaces the report bytes of the body
	// (default: the canonical encoding of fakeReport).
	report atomic.Pointer[func(req simulateWire) []byte]
}

// simulateWire mirrors the fields cluster dispatch posts.
type simulateWire struct {
	Config   eole.Config        `json:"config"`
	Workload string             `json:"workload"`
	Warmup   uint64             `json:"warmup"`
	Measure  uint64             `json:"measure"`
	Sampling *eole.SamplingSpec `json:"sampling,omitempty"`
	Relayed  bool               `json:"relayed,omitempty"`
}

// fakeReport is the stub's deterministic result: enough shape for the
// canonical-encoding gate, relabeling and equality checks without
// running the simulator.
func fakeReport(req simulateWire) *eole.Report {
	return &eole.Report{
		Config:    req.Config.Label(),
		Benchmark: req.Workload,
		Cycles:    req.Measure,
		Committed: req.Measure,
		IPC:       1.0,
	}
}

func newStubWorker(t *testing.T) *stubWorker {
	t.Helper()
	sw := &stubWorker{}
	sw.healthy.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, _ *http.Request) {
		if !sw.healthy.Load() {
			http.Error(w, "down", http.StatusInternalServerError)
			return
		}
		json.NewEncoder(w).Encode(Health{Status: "ok", Version: "stub"})
	})
	mux.HandleFunc("POST /v1/simulate", func(w http.ResponseWriter, r *http.Request) {
		call := sw.calls.Add(1)
		var req simulateWire
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if req.Relayed {
			sw.relayed.Add(1)
		}
		if hook := sw.onCall.Load(); hook != nil && (*hook)(w, call, req) {
			return
		}
		if run := sw.onRun.Load(); run != nil {
			(*run)(r.Context(), req)
		}
		// The body is the report's bytes, newline-terminated, as eoled
		// writes it — so a test can send any.
		rep, err := json.Marshal(fakeReport(req))
		if err != nil {
			t.Error(err)
		}
		if f := sw.report.Load(); f != nil {
			rep = (*f)(req)
		}
		w.Write(append(rep, '\n'))
	})
	sw.srv = httptest.NewUnstartedServer(mux)
	sw.srv.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			sw.conns.Add(1)
		}
	}
	sw.srv.Start()
	t.Cleanup(sw.srv.Close)
	return sw
}

// refuse makes every dispatch for which when(call) holds answer with
// the given status and eoled-style error body.
func (sw *stubWorker) refuse(status int, msg string, when func(call int64) bool) {
	f := func(w http.ResponseWriter, call int64, _ simulateWire) bool {
		if !when(call) {
			return false
		}
		if status == http.StatusTooManyRequests {
			w.Header().Set("Retry-After", "0")
		}
		http.Error(w, fmt.Sprintf(`{"error":%q}`, msg), status)
		return true
	}
	sw.onCall.Store(&f)
}

func always(int64) bool { return true }

// park makes every simulation on the worker block until release is
// closed or the coordinator drops the request.
func (sw *stubWorker) park(release <-chan struct{}) {
	f := func(ctx context.Context, _ simulateWire) {
		select {
		case <-release:
		case <-ctx.Done():
		}
	}
	sw.onRun.Store(&f)
}

// testCoordinator builds a coordinator (over a memStore unless opts
// names a store) that is closed when the test ends, and checks then
// that nothing it started outlives Close — probers, dispatches, the
// client's connection goroutines: the goroutine count is back to what
// it was before New.
func testCoordinator(t *testing.T, opts Options) *Coordinator {
	t.Helper()
	opts.Store = cmp.Or(opts.Store, memStore(t))
	before := runtime.NumGoroutine()
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		c.Close()
		// The workers' ends of the closed connections are still exiting.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("goroutine leak: %d before New, %d after Close", before, after)
		}
	})
	return c
}

func namedConfig(t *testing.T, name string) eole.Config {
	t.Helper()
	cfg, err := eole.NamedConfig(name)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func req(cfg eole.Config, wl string) simsvc.Request {
	return simsvc.Request{Config: cfg, Workload: wl, Warmup: 1_000, Measure: 3_000}
}

// memStore is a coordinator's own store, memory tier only.
func memStore(t *testing.T) *artifact.Store {
	t.Helper()
	store, err := artifact.Open(artifact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return store
}

// collect waits for the run and returns each index's report decoded
// from its relayed bytes under its own request's label, as a client of
// a coordinator's /v1/sweep reads it (nil for a failed cell), with the
// failed cells' errors joined.
func collect(run *Run, reqs []simsvc.Request) ([]*eole.Report, error) {
	<-run.Done()
	reports := make([]*eole.Report, len(reqs))
	var errs []error
	for i, req := range reqs {
		if err := run.Err(i); err != nil {
			errs = append(errs, err)
			continue
		}
		rep := new(eole.Report)
		if err := json.Unmarshal(run.Encoded(i).AppendLabeled(nil, req.Config.Label()), rep); err != nil {
			return nil, err
		}
		reports[i] = rep
	}
	return reports, errors.Join(errs...)
}

// sweep runs reqs on c to the end: Start, then collect.
func sweep(ctx context.Context, c *Coordinator, reqs []simsvc.Request) ([]*eole.Report, error) {
	run, err := c.Start(ctx, reqs, simsvc.Keys(reqs))
	if err != nil {
		return nil, err
	}
	return collect(run, reqs)
}

// TestNewRequiresStore: a coordinator keeps what it relays, so there
// is none without a store.
func TestNewRequiresStore(t *testing.T) {
	if _, err := New(Options{Workers: []string{"127.0.0.1:1"}}); err == nil {
		t.Fatal("New without a Store must fail")
	}
}

// TestDedupAndRelabel: two sweep cells whose configs share a
// fingerprint under different display names must dispatch once
// cluster-wide, and each slot must come back under its own label —
// exactly how single-node eoled relabels.
func TestDedupAndRelabel(t *testing.T) {
	sw := newStubWorker(t)
	c := testCoordinator(t, Options{Workers: []string{sw.srv.URL}})

	base := namedConfig(t, "EOLE_4_64")
	alias := base
	alias.Name = "MyAlias"
	reports, err := sweep(context.Background(), c, []simsvc.Request{
		req(base, "gzip"), req(alias, "gzip"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := sw.calls.Load(); n != 1 {
		t.Errorf("identical cells dispatched %d times, want 1", n)
	}
	if reports[0].Config != "EOLE_4_64" || reports[1].Config != "MyAlias" {
		t.Errorf("labels %q/%q, want EOLE_4_64/MyAlias", reports[0].Config, reports[1].Config)
	}
	if reports[0].IPC != reports[1].IPC {
		t.Errorf("deduped cells disagree: %v vs %v", reports[0].IPC, reports[1].IPC)
	}
}

// TestRetryOn5xx: a worker answering 500 is retried on the other
// worker without tripping the failing worker's circuit (a clean HTTP
// answer proves it alive).
func TestRetryOn5xx(t *testing.T) {
	flaky, good := newStubWorker(t), newStubWorker(t)
	flaky.refuse(http.StatusInternalServerError, "transient", func(call int64) bool { return call <= 2 })
	c := testCoordinator(t, Options{
		Workers:     []string{flaky.srv.URL, good.srv.URL},
		MaxInFlight: 1,
	})
	cfg := namedConfig(t, "EOLE_4_64")
	reports, err := sweep(context.Background(), c, []simsvc.Request{
		req(cfg, "gzip"), req(cfg, "art"), req(cfg, "mcf"),
	})
	if err != nil {
		t.Fatalf("sweep should survive transient 5xx: %v", err)
	}
	for i, r := range reports {
		if r == nil {
			t.Fatalf("cell %d lost", i)
		}
	}
	var requeued uint64
	for _, ws := range c.Workers() {
		requeued += ws.Requeued
		if ws.URL == flaky.srv.URL && ws.State == "open" {
			t.Errorf("5xx answers must not open the circuit")
		}
	}
	if requeued == 0 {
		t.Errorf("expected at least one requeue after 5xx")
	}
}

// Test429Backpressure: a 429 rests the worker for the Retry-After hint
// and requeues the cell without consuming a retry attempt.
func Test429Backpressure(t *testing.T) {
	sw := newStubWorker(t)
	sw.refuse(http.StatusTooManyRequests, "queue full", func(call int64) bool { return call == 1 })
	c := testCoordinator(t, Options{Workers: []string{sw.srv.URL}, MaxAttempts: 1})
	reports, err := sweep(context.Background(), c, []simsvc.Request{req(namedConfig(t, "EOLE_4_64"), "gzip")})
	if err != nil {
		t.Fatalf("429 must be backpressure, not failure (MaxAttempts=1): %v", err)
	}
	if reports[0] == nil {
		t.Fatal("cell lost")
	}
	if ws := c.Workers()[0]; ws.Throttled != 1 || ws.Dispatched != 2 || ws.Completed != 1 {
		t.Errorf("worker %+v, want 2 dispatches (the throttled one free), 1 throttled, 1 completed", ws)
	}
}

// TestRefusalRetriedElsewhere: a clean refusal is retried on another
// worker with no circuit penalty — a 400 may be one worker's local
// policy (a stricter -max-uops), a 404 a worker that does not serve
// the dispatch route — and when every worker refuses, the cell fails
// after MaxAttempts with the worker's message, naming the endpoint.
func TestRefusalRetriedElsewhere(t *testing.T) {
	for _, tc := range []struct {
		status int
		msg    string
	}{
		{http.StatusBadRequest, "run length exceeds server limit"},
		{http.StatusNotFound, "404 page not found"},
	} {
		t.Run(strconv.Itoa(tc.status), func(t *testing.T) {
			strict, lax := newStubWorker(t), newStubWorker(t)
			strict.refuse(tc.status, tc.msg, always)
			c := testCoordinator(t, Options{
				Workers:     []string{strict.srv.URL, lax.srv.URL},
				MaxInFlight: 1,
			})
			cfg := namedConfig(t, "EOLE_4_64")
			reports, err := sweep(context.Background(), c, []simsvc.Request{
				req(cfg, "gzip"), req(cfg, "art"), req(cfg, "mcf"),
			})
			if err != nil {
				t.Fatalf("a per-worker refusal must not sink the sweep: %v", err)
			}
			for i, r := range reports {
				if r == nil {
					t.Fatalf("cell %d lost", i)
				}
			}
			if ws := c.Workers()[0]; ws.State != "healthy" || ws.Requeued == 0 {
				t.Errorf("a refusal is clean (requeue, no circuit penalty): %+v", ws)
			}

			c2 := testCoordinator(t, Options{Workers: []string{strict.srv.URL}, MaxAttempts: 3})
			before := strict.calls.Load()
			reports, err = sweep(context.Background(), c2, []simsvc.Request{req(cfg, "gzip")})
			if err == nil || reports[0] != nil {
				t.Fatalf("a unanimous refusal must fail the cell: err=%v", err)
			}
			for _, want := range []string{"after 3 attempts", "POST /v1/simulate", "HTTP " + strconv.Itoa(tc.status), tc.msg} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not mention %q", err, want)
				}
			}
			if n := strict.calls.Load() - before; n != 3 {
				t.Errorf("dispatched %d times, want MaxAttempts=3", n)
			}
		})
	}
}

// TestRetriedCellWaitsForUntriedWorker: a cell one worker rejects must
// not burn its attempt budget on that worker while the accepting one is
// merely busy — it waits for the worker it has not visited.
func TestRetriedCellWaitsForUntriedWorker(t *testing.T) {
	strict, lax := newStubWorker(t), newStubWorker(t)
	strict.refuse(http.StatusBadRequest, "run length exceeds server limit", always)
	release := make(chan struct{})
	lax.park(release)
	c := testCoordinator(t, Options{
		Workers:     []string{strict.srv.URL, lax.srv.URL},
		MaxInFlight: 1,
	})
	cfg := namedConfig(t, "EOLE_4_64")
	reqs := []simsvc.Request{req(cfg, "gzip"), req(cfg, "art")}
	run, err := c.Start(context.Background(), reqs, simsvc.Keys(reqs))
	if err != nil {
		t.Fatal(err)
	}
	// One cell occupies lax (held behind the channel); the other lands
	// on strict, is rejected and requeued. Release lax only once strict
	// is idle again, i.e. the rejected cell is waiting in the queue.
	deadline := time.Now().Add(5 * time.Second)
	for {
		ws := c.Workers()
		if ws[0].Requeued == 1 && ws[0].InFlight == 0 && ws[1].InFlight == 1 {
			break
		}
		if time.Now().After(deadline) {
			close(release) // let the stub server shut down
			t.Fatalf("rejected cell is not waiting for the busy worker: %+v", ws)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	reports, err := collect(run, reqs)
	if err != nil {
		t.Fatalf("the rejected cell must wait for the busy accepting worker: %v", err)
	}
	if reports[0] == nil || reports[1] == nil {
		t.Fatal("cell lost")
	}
	if n := strict.calls.Load(); n != 1 {
		t.Errorf("rejecting worker saw %d dispatches, want 1 (no revisit while lax is untried)", n)
	}
}

// TestPickWorkerPrefersWaitingOverRevisit pins the selection rule
// directly: tried workers are out while an untried closed-circuit one
// remains, however busy, and come back only when none is left.
func TestPickWorkerPrefersWaitingOverRevisit(t *testing.T) {
	c := testCoordinator(t, Options{Workers: []string{"127.0.0.1:1", "127.0.0.1:2"}, MaxInFlight: 1})
	c.mu.Lock()
	defer c.mu.Unlock()
	a, b := c.workers[0], c.workers[1]
	a.open, b.open = false, false // whatever the probers have concluded so far
	now := time.Now()
	tried := map[*worker]bool{a: true}
	if w := c.pickWorkerLocked(tried, now); w != b {
		t.Fatalf("free untried worker not picked: %v", w)
	}
	b.inflight = 1
	if w := c.pickWorkerLocked(tried, now); w != nil {
		t.Fatalf("busy untried worker: picked %s, want to wait", w.url)
	}
	b.inflight, b.throttledUntil = 0, now.Add(time.Hour)
	if w := c.pickWorkerLocked(tried, now); w != nil {
		t.Fatalf("throttled untried worker: picked %s, want to wait", w.url)
	}
	b.open = true
	if w := c.pickWorkerLocked(tried, now); w != a {
		t.Fatalf("no untried closed-circuit worker left: want the tried one back, got %v", w)
	}
	if w := c.pickWorkerLocked(map[*worker]bool{a: true, b: true}, now); w != a {
		t.Fatalf("every worker tried: want the dispatchable one, got %v", w)
	}
}

// TestDeadPeerSurvived: a peer that was never reachable (unknown host,
// wrong port) must not sink the sweep — its cells requeue to the live
// worker and its circuit opens.
func TestDeadPeerSurvived(t *testing.T) {
	good := newStubWorker(t)
	c := testCoordinator(t, Options{
		Workers:          []string{"127.0.0.1:1", good.srv.URL},
		FailureThreshold: 1,
		MaxInFlight:      1,
	})
	cfg := namedConfig(t, "EOLE_4_64")
	reports, err := sweep(context.Background(), c, []simsvc.Request{
		req(cfg, "gzip"), req(cfg, "art"), req(cfg, "mcf"), req(cfg, "namd"),
	})
	if err != nil {
		t.Fatalf("sweep must survive one dead peer: %v", err)
	}
	for i, r := range reports {
		if r == nil {
			t.Fatalf("cell %d lost", i)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if ws := c.Workers()[0]; ws.State == "open" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("dead peer's circuit never opened")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestAllWorkersDead: with every circuit open and nothing in flight
// the run fails fast with ErrNoWorkers instead of parking forever.
func TestAllWorkersDead(t *testing.T) {
	c := testCoordinator(t, Options{
		Workers:          []string{"127.0.0.1:1"},
		FailureThreshold: 1,
		MaxAttempts:      2,
	})
	_, err := sweep(context.Background(), c, []simsvc.Request{
		req(namedConfig(t, "EOLE_4_64"), "gzip"),
		req(namedConfig(t, "EOLE_6_64"), "gzip"),
	})
	if err == nil {
		t.Fatal("want failure with no live workers")
	}
	if !errors.Is(err, ErrNoWorkers) && !errors.Is(err, context.DeadlineExceeded) {
		// The first cell burns the attempt budget; the rest fail with
		// ErrNoWorkers once the circuit is open.
		t.Logf("joined error: %v", err)
	}
}

// TestProbeRecovery: the prober opens the circuit while /v1/healthz
// fails and closes it again on the first success.
func TestProbeRecovery(t *testing.T) {
	sw := newStubWorker(t)
	sw.healthy.Store(false)
	c := testCoordinator(t, Options{
		Workers:          []string{sw.srv.URL},
		ProbeInterval:    10 * time.Millisecond,
		FailureThreshold: 2,
	})
	waitState := func(want string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			if ws := c.Workers()[0]; ws.State == want {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("worker never became %q (now %q)", want, c.Workers()[0].State)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitState("open")
	sw.healthy.Store(true)
	waitState("healthy")
	if v := c.Workers()[0].Version; v != "stub" {
		t.Errorf("probe did not record the worker version: %q", v)
	}
}

// TestCanceledSweep: canceling the sweep context fails queued cells
// with the context error, ends the request of the cell that was on the
// wire (on the worker its context is canceled: nobody is left to
// simulate for), and the run still terminates cleanly.
func TestCanceledSweep(t *testing.T) {
	sw := newStubWorker(t)
	attached, left := make(chan struct{}, 1), make(chan struct{})
	park := func(ctx context.Context, _ simulateWire) {
		attached <- struct{}{}
		<-ctx.Done() // simulate until the coordinator drops the request
		close(left)
	}
	sw.onRun.Store(&park)
	c := testCoordinator(t, Options{Workers: []string{sw.srv.URL}, MaxInFlight: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cfg := namedConfig(t, "EOLE_4_64")
	reqs := []simsvc.Request{req(cfg, "gzip"), req(cfg, "art")}
	run, err := c.Start(ctx, reqs, simsvc.Keys(reqs))
	if err != nil {
		t.Fatal(err)
	}
	<-attached // one cell is mid-simulation, the other queued behind it
	cancel()
	_, err = collect(run, reqs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled in the joined error, got %v", err)
	}
	select {
	case <-run.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("run never terminated after cancel")
	}
	select {
	case <-left:
	case <-time.After(5 * time.Second):
		t.Fatal("the in-flight dispatch's request context was never canceled on the worker")
	}
	if n := sw.calls.Load(); n != 1 {
		t.Errorf("%d dispatches, want the one in flight (the queued cell never leaves)", n)
	}
	// Our own canceled dispatches say nothing about worker health: the
	// circuit must stay closed so concurrent runs keep dispatching.
	if ws := c.Workers()[0]; ws.State != "healthy" {
		t.Errorf("run cancellation penalized a healthy worker: %+v", ws)
	}
}

// TestDispatchTimeout: a wedged-but-connectable worker (accepts the
// cell, never answers it, healthz fine) must not pin a cell forever when
// DispatchTimeout is set — the timeout feeds the ordinary requeue path
// and the healthy worker completes the sweep.
func TestDispatchTimeout(t *testing.T) {
	wedged, good := newStubWorker(t), newStubWorker(t)
	parked := make(chan struct{})
	wedged.park(parked) // hold every simulation forever; healthz stays green
	t.Cleanup(func() { close(parked) })
	c := testCoordinator(t, Options{
		Workers:         []string{wedged.srv.URL, good.srv.URL},
		MaxInFlight:     1,
		DispatchTimeout: 50 * time.Millisecond,
	})
	cfg := namedConfig(t, "EOLE_4_64")
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	reports, err := sweep(ctx, c, []simsvc.Request{req(cfg, "gzip"), req(cfg, "art")})
	if err != nil {
		t.Fatalf("sweep must route around a wedged worker: %v", err)
	}
	for i, r := range reports {
		if r == nil {
			t.Fatalf("cell %d lost to the wedged worker", i)
		}
	}
}

// TestRetryAfterOverflow: an absurd Retry-After value must clamp, not
// overflow into a negative delay that defeats the throttle cap.
func TestRetryAfterOverflow(t *testing.T) {
	if d := retryAfter("10000000000"); d != maxRetryAfter {
		t.Errorf("retryAfter = %v, want the %v clamp", d, maxRetryAfter)
	}
	if d := retryAfter("1"); d != time.Second {
		t.Errorf("retryAfter = %v, want 1s", d)
	}
}

// TestAddStatsCoversAllFields walks simsvc.Stats by reflection and
// fails if addStats drops a numeric field: a counter added to the
// service in a future PR must not silently merge to zero in
// /v1/cluster/workers.
func TestAddStatsCoversAllFields(t *testing.T) {
	var a simsvc.Stats
	v := reflect.ValueOf(&a).Elem()
	for i := 0; i < v.NumField(); i++ {
		switch f := v.Field(i); f.Kind() {
		case reflect.Uint64:
			f.SetUint(1)
		case reflect.Int, reflect.Int64:
			f.SetInt(1)
		case reflect.Float64:
			f.SetFloat(1)
		}
	}
	sum := reflect.ValueOf(addStats(a, a))
	for i := 0; i < sum.NumField(); i++ {
		name := sum.Type().Field(i).Name
		if name == "UopsPerSec" {
			continue // recomputed from the summed totals by the caller
		}
		var got float64
		switch f := sum.Field(i); f.Kind() {
		case reflect.Uint64:
			got = float64(f.Uint())
		case reflect.Int, reflect.Int64:
			got = float64(f.Int())
		case reflect.Float64:
			got = f.Float()
		default:
			t.Fatalf("simsvc.Stats.%s has kind %v: teach addStats (and this test) about it", name, f.Kind())
		}
		if got != 2 {
			t.Errorf("addStats drops simsvc.Stats.%s (sum = %v, want 2)", name, got)
		}
	}
}

// TestStatsMerge: Coordinator.Stats sums reachable workers' service
// counters and attaches per-endpoint attribution.
func TestStatsMerge(t *testing.T) {
	a, b := newStubWorker(t), newStubWorker(t)
	statsFor := func(sims uint64) func(w http.ResponseWriter, r *http.Request) {
		return func(w http.ResponseWriter, _ *http.Request) {
			json.NewEncoder(w).Encode(ServiceStats{
				Stats: simsvc.Stats{SimsRun: sims, SimulatedOps: sims * 1000,
					SimWallTime: time.Duration(sims) * time.Millisecond},
				Endpoints: map[string]EndpointStats{"/v1/simulate": {Requests: sims}},
			})
		}
	}
	// The stub mux has no /v1/stats; bolt one on per worker.
	amux, bmux := http.NewServeMux(), http.NewServeMux()
	amux.HandleFunc("GET /v1/stats", statsFor(3))
	amux.Handle("/", a.srv.Config.Handler)
	bmux.HandleFunc("GET /v1/stats", statsFor(5))
	bmux.Handle("/", b.srv.Config.Handler)
	asrv, bsrv := httptest.NewServer(amux), httptest.NewServer(bmux)
	t.Cleanup(asrv.Close)
	t.Cleanup(bsrv.Close)

	c := testCoordinator(t, Options{Workers: []string{asrv.URL, bsrv.URL}})
	st := c.Stats(context.Background())
	if len(st.Workers) != 2 {
		t.Fatalf("%d workers, want 2", len(st.Workers))
	}
	if st.Service.SimsRun != 8 {
		t.Errorf("merged SimsRun = %d, want 8", st.Service.SimsRun)
	}
	if st.Service.UopsPerSec == 0 {
		t.Error("merged UopsPerSec not recomputed")
	}
	for i, w := range st.Workers {
		if w.Service == nil {
			t.Fatalf("worker %d service stats missing", i)
		}
		if w.Service.Endpoints["/v1/simulate"].Requests == 0 {
			t.Errorf("worker %d endpoint attribution missing", i)
		}
	}
}
