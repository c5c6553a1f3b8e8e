package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"eole"
	"eole/internal/artifact"
	"eole/internal/cluster"
	"eole/internal/simsvc"
)

// newWorker spins up a real eoled worker: its own simulation service
// behind the full HTTP handler, exactly what a remote eoled process
// serves.
func newWorker(t *testing.T, opts serverOptions) *httptest.Server {
	t.Helper()
	svc, err := simsvc.New(simsvc.Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	if opts.version == "" {
		opts.version = "test"
	}
	srv := httptest.NewServer(newServer(svc, opts))
	t.Cleanup(srv.Close)
	return srv
}

// newCoordinator builds a coordinator that is closed when the test
// ends, and checks then that nothing it started outlives Close: the
// goroutine count is back to what it was before New. Create the workers
// first — whatever a test starts after this must be stopped by a later
// Cleanup, which runs earlier.
func newCoordinator(t *testing.T, opts cluster.Options) *cluster.Coordinator {
	t.Helper()
	before := runtime.NumGoroutine()
	co, err := cluster.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		co.Close()
		// Not the coordinator's: connections the test itself (http.Post,
		// a reverse proxy) left idle in the default transport.
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("goroutine leak: %d before cluster.New, %d after Close", before, after)
		}
	})
	return co
}

func workerOpts() serverOptions {
	return serverOptions{defaultWarmup: 1_000, defaultMeasure: 3_000, maxUops: 50_000_000}
}

// testGrid is the acceptance sweep: 6 grid configs × 2 workloads = 12
// cells, all distinct.
func testGrid(t *testing.T) []eole.Config {
	t.Helper()
	g := eole.Grid{
		BaseName: "EOLE_4_64",
		Axes: []eole.Axis{
			{Option: "PRFBanks", Values: []any{2, 4, 8}},
			{Option: "EarlyExecution", Values: []any{1, 2}},
		},
	}
	cfgs, err := g.Configs()
	if err != nil {
		t.Fatal(err)
	}
	return cfgs
}

// singleNode runs the request list through a local service and
// relabels per request — the reference result a distributed sweep must
// reproduce byte for byte.
func singleNode(t *testing.T, reqs []simsvc.Request) []byte {
	t.Helper()
	svc, err := simsvc.New(simsvc.Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	sweep, err := svc.SubmitSweep(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := sweep.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i := range reports {
		reports[i] = cluster.Relabel(reports[i], reqs[i].Config.Label())
	}
	return marshalReports(t, reports)
}

func marshalReports(t *testing.T, reports []*eole.Report) []byte {
	t.Helper()
	b, err := json.MarshalIndent(reports, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestClusterByteIdenticalToSingleNode is the acceptance check: a
// 3-worker distributed sweep over 12 grid cells — full runs and a
// sampled variant — returns reports byte-identical to the same sweep
// run in one process.
func TestClusterByteIdenticalToSingleNode(t *testing.T) {
	workers := []string{
		newWorker(t, workerOpts()).URL,
		newWorker(t, workerOpts()).URL,
		newWorker(t, workerOpts()).URL,
	}
	co := newCoordinator(t, cluster.Options{Workers: workers})

	cfgs := testGrid(t)
	for _, tc := range []struct {
		name     string
		sampling *eole.SamplingSpec
	}{
		{"full", nil},
		{"sampled", &eole.SamplingSpec{Windows: 4, Warm: 2_000}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reqs := simsvc.ApplySampling(
				simsvc.Cross(cfgs, []string{"gzip", "art"}, 1_000, 3_000), tc.sampling)
			if len(reqs) < 12 {
				t.Fatalf("acceptance sweep must cover >= 12 cells, got %d", len(reqs))
			}
			reports, err := co.Sweep(context.Background(), reqs)
			if err != nil {
				t.Fatal(err)
			}
			got := marshalReports(t, reports)
			want := singleNode(t, reqs)
			if !bytes.Equal(got, want) {
				t.Errorf("distributed sweep diverged from single-node result\ncluster:\n%.400s\nsingle:\n%.400s", got, want)
			}
		})
	}
}

// TestClusterKillWorkerMidSweep kills one of three workers after the
// first cell completes: its in-flight and queued cells must requeue to
// the survivors, every cell must be accounted for, and the merged
// reports must still match a single-node run.
func TestClusterKillWorkerMidSweep(t *testing.T) {
	victim := newWorker(t, workerOpts())
	workers := []string{
		victim.URL,
		newWorker(t, workerOpts()).URL,
		newWorker(t, workerOpts()).URL,
	}
	co := newCoordinator(t, cluster.Options{
		Workers: workers,
		// Open a killed worker's circuit on its first broken dispatch
		// so requeued cells do not revisit it.
		FailureThreshold: 1,
	})

	// Longer cells so the kill lands mid-sweep, not after it.
	reqs := simsvc.Cross(testGrid(t), []string{"gzip", "art"}, 1_000, 30_000)
	run, err := co.Start(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}

	var cells int
	killed := false
	for res := range run.Results() {
		cells++
		if res.Err != nil {
			t.Errorf("cell %v failed: %v", res.Indexes, res.Err)
		}
		if !killed {
			killed = true
			victim.CloseClientConnections()
			victim.Close()
		}
	}
	reports, err := run.Wait(context.Background())
	if err != nil {
		t.Fatalf("sweep must survive a killed worker: %v", err)
	}
	if cells != len(reqs) { // every cell is unique in this grid
		t.Errorf("%d cells delivered, want %d", cells, len(reqs))
	}
	for i, r := range reports {
		if r == nil {
			t.Fatalf("cell %d lost after worker kill", i)
		}
	}
	if got, want := marshalReports(t, reports), singleNode(t, reqs); !bytes.Equal(got, want) {
		t.Error("post-kill reports diverged from single-node result")
	}
}

// TestClusterSweepEndpoint drives the coordinator's HTTP surface:
// /v1/cluster/sweep shards across workers with per-cell worker
// attribution, /v1/cluster/workers reports merged stats.
func TestClusterSweepEndpoint(t *testing.T) {
	w1, w2 := newWorker(t, workerOpts()), newWorker(t, workerOpts())
	co := newCoordinator(t, cluster.Options{Workers: []string{w1.URL, w2.URL}})
	opts := workerOpts()
	opts.coord = co
	coordSvc, err := simsvc.New(simsvc.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coordSvc.Close)
	h := newServer(coordSvc, opts)

	rec := postJSON(t, h, "/v1/cluster/sweep", wireRequest{
		Configs:   []configRef{namedRef("EOLE_4_64"), namedRef("Baseline_6_64")},
		Workloads: []string{"gzip", "art"},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("cluster sweep: %d: %s", rec.Code, rec.Body.String())
	}
	var resp struct {
		Results []clusterCell `json:"results"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 4 {
		t.Fatalf("%d results, want 4", len(resp.Results))
	}
	for _, res := range resp.Results {
		if res.Error != "" || res.Report == nil {
			t.Errorf("%s on %s: error %q", res.Config, res.Workload, res.Error)
			continue
		}
		if res.Worker != w1.URL && res.Worker != w2.URL {
			t.Errorf("cell attributed to unknown worker %q", res.Worker)
		}
		if res.Report.Config != res.Config {
			t.Errorf("report labeled %q in a %q cell", res.Report.Config, res.Config)
		}
	}

	var st cluster.Stats
	if rec := getJSON(t, h, "/v1/cluster/workers", &st); rec.Code != http.StatusOK {
		t.Fatalf("/v1/cluster/workers: %d", rec.Code)
	}
	if len(st.Workers) != 2 {
		t.Fatalf("%d workers, want 2", len(st.Workers))
	}
	if st.Service.SimsRun != 4 {
		t.Errorf("merged SimsRun = %d, want 4", st.Service.SimsRun)
	}
	// The coordinator dispatches each cell as an async job: 4 cells →
	// 4 creates on /v1/jobs, each followed by at least one attach to
	// its event stream.
	var created, streamed uint64
	for _, w := range st.Workers {
		if w.Service == nil {
			t.Fatalf("worker %s service stats missing", w.URL)
		}
		created += w.Service.Endpoints["/v1/jobs"].Requests
		streamed += w.Service.Endpoints["/v1/jobs/{id}/events"].Requests
	}
	if created != 4 {
		t.Errorf("per-worker /v1/jobs attribution sums to %d, want 4", created)
	}
	if streamed < 4 {
		t.Errorf("per-worker event-stream attribution sums to %d, want >= 4", streamed)
	}
	if sims := st.Workers[0].Service.Endpoints["/v1/simulate"].Requests +
		st.Workers[1].Service.Endpoints["/v1/simulate"].Requests; sims != 0 {
		t.Errorf("legacy /v1/simulate served %d dispatches, want 0 (jobs path)", sims)
	}
}

// TestClusterErrorPaths covers the coordinator endpoint's failure
// modes: malformed bodies, invalid sweeps, and a server that is not a
// coordinator at all.
func TestClusterErrorPaths(t *testing.T) {
	w1 := newWorker(t, workerOpts())
	co := newCoordinator(t, cluster.Options{Workers: []string{w1.URL}})
	opts := workerOpts()
	opts.coord = co
	svc, err := simsvc.New(simsvc.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	h := newServer(svc, opts)

	// Malformed JSON body.
	req := httptest.NewRequest(http.MethodPost, "/v1/cluster/sweep", bytes.NewReader([]byte("{nope")))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("malformed body: %d, want 400", rec.Code)
	}
	// Unknown field (strict decode).
	req = httptest.NewRequest(http.MethodPost, "/v1/cluster/sweep", bytes.NewReader([]byte(`{"confgs":["EOLE_4_64"]}`)))
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("unknown field: %d, want 400", rec.Code)
	}
	// Bad sweep content: unknown config and unknown workload.
	if rec := postJSON(t, h, "/v1/cluster/sweep", wireRequest{Configs: []configRef{namedRef("NoSuch")}}); rec.Code != http.StatusBadRequest {
		t.Errorf("unknown config: %d, want 400", rec.Code)
	}
	if rec := postJSON(t, h, "/v1/cluster/sweep", wireRequest{
		Configs: []configRef{namedRef("EOLE_4_64")}, Workloads: []string{"nope"},
	}); rec.Code != http.StatusBadRequest {
		t.Errorf("unknown workload: %d, want 400", rec.Code)
	}

	// Unusable peer lists are rejected at construction.
	if _, err := cluster.New(cluster.Options{}); err == nil {
		t.Error("New without workers must fail")
	}
	if _, err := cluster.New(cluster.Options{Workers: []string{"  "}}); err == nil {
		t.Error("blank worker address must fail")
	}

	// A plain eoled (no -peers) routes no cluster endpoints at all.
	plain := newWorker(t, workerOpts())
	resp, err := http.Post(plain.URL+"/v1/cluster/sweep", "application/json", bytes.NewReader([]byte(`{}`)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("non-coordinator cluster sweep: %d, want 404", resp.StatusCode)
	}
}

// TestClusterWorkerFaults puts real eoled workers behind fault
// injection on the job-create path: one answers 500 for its first
// calls, the other opens with a 429 + Retry-After. The sweep must
// absorb both.
func TestClusterWorkerFaults(t *testing.T) {
	flaky, throttled := newWorker(t, workerOpts()), newWorker(t, workerOpts())
	var flakyCalls, throttleCalls atomic.Int64
	// wrap fronts a real worker with a transparent reverse proxy
	// (headers, query and streaming intact — the event stream flows
	// through it) plus a fault hook on POST /v1/jobs, the dispatch
	// entry point.
	wrap := func(target string, f func(w http.ResponseWriter, r *http.Request) bool) *httptest.Server {
		u, err := url.Parse(target)
		if err != nil {
			t.Fatal(err)
		}
		inner := httputil.NewSingleHostReverseProxy(u)
		inner.FlushInterval = -1
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && r.URL.Path == "/v1/jobs" && f(w, r) {
				return
			}
			inner.ServeHTTP(w, r)
		}))
		t.Cleanup(srv.Close)
		return srv
	}
	flakySrv := wrap(flaky.URL, func(w http.ResponseWriter, _ *http.Request) bool {
		if flakyCalls.Add(1) <= 2 {
			http.Error(w, `{"error":"injected"}`, http.StatusInternalServerError)
			return true
		}
		return false
	})
	throttledSrv := wrap(throttled.URL, func(w http.ResponseWriter, _ *http.Request) bool {
		if throttleCalls.Add(1) == 1 {
			w.Header().Set("Retry-After", "0")
			http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
			return true
		}
		return false
	})

	co := newCoordinator(t, cluster.Options{
		Workers:     []string{flakySrv.URL, throttledSrv.URL},
		MaxInFlight: 1,
	})

	reqs := simsvc.Cross(testGrid(t)[:2], []string{"gzip", "art"}, 1_000, 3_000)
	run, err := co.Start(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	reports, err := run.Wait(context.Background())
	if err != nil {
		t.Fatalf("sweep must absorb 5xx and 429 workers: %v", err)
	}
	for i, r := range reports {
		if r == nil {
			t.Fatalf("cell %d lost", i)
		}
	}
	var throttledN uint64
	for _, ws := range co.Workers() {
		throttledN += ws.Throttled
	}
	if throttledN == 0 {
		t.Error("429 was never observed as backpressure")
	}
}

// newCoordinatorServer stands a coordinator eoled over the workers: its
// own store is the cluster's result tier, as in main.
func newCoordinatorServer(t *testing.T, workers []string) (*cluster.Coordinator, http.Handler) {
	t.Helper()
	store, err := artifact.Open(artifact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	co := newCoordinator(t, cluster.Options{Workers: workers, Store: store})
	svc, err := simsvc.New(simsvc.Options{Parallelism: 1, Artifacts: store})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	opts := workerOpts()
	opts.coord = co
	return co, newServer(svc, opts)
}

// TestClusterSweepRepeatedIsServedByTheCoordinator: the coordinator
// keeps what its workers relay, so the same sweep again dispatches
// nothing — every worker's counter stands still, every cell says
// cached and names no worker — and the reports are the same bytes.
func TestClusterSweepRepeatedIsServedByTheCoordinator(t *testing.T) {
	co, h := newCoordinatorServer(t, []string{newWorker(t, workerOpts()).URL, newWorker(t, workerOpts()).URL})
	body := wireRequest{
		Configs:   []configRef{namedRef("EOLE_4_64"), namedRef("Baseline_6_64")},
		Workloads: []string{"gzip", "art"},
	}
	sweep := func() []map[string]json.RawMessage {
		t.Helper()
		rec := postJSON(t, h, "/v1/cluster/sweep", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("cluster sweep: %d: %s", rec.Code, rec.Body.String())
		}
		var resp struct {
			Results []map[string]json.RawMessage `json:"results"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || len(resp.Results) != 4 {
			t.Fatalf("reply: %d cells (err %v), want 4", len(resp.Results), err)
		}
		return resp.Results
	}
	dispatched := func() (n []uint64) {
		for _, ws := range co.Workers() {
			n = append(n, ws.Dispatched)
		}
		return n
	}

	first := sweep()
	before := dispatched()
	if before[0]+before[1] != 4 {
		t.Fatalf("first sweep dispatched %v, want 4 cells in all", before)
	}
	second := sweep()
	if after := dispatched(); !reflect.DeepEqual(after, before) {
		t.Errorf("the repeated sweep dispatched: %v → %v", before, after)
	}
	for i := range first {
		if string(first[i]["cached"]) != "false" || first[i]["worker"] == nil || string(first[i]["attempts"]) != "1" {
			t.Errorf("first sweep, cell %d: cached=%s worker=%s attempts=%s", i, first[i]["cached"], first[i]["worker"], first[i]["attempts"])
		}
		if string(second[i]["cached"]) != "true" || second[i]["worker"] != nil || second[i]["attempts"] != nil {
			t.Errorf("repeated sweep, cell %d: cached=%s worker=%s attempts=%s; want cached and unplaced", i, second[i]["cached"], second[i]["worker"], second[i]["attempts"])
		}
		for _, cell := range []map[string]json.RawMessage{first[i], second[i]} {
			delete(cell, "cached")
			delete(cell, "worker")
			delete(cell, "attempts")
		}
		if !reflect.DeepEqual(first[i], second[i]) || first[i]["report"] == nil {
			t.Errorf("cell %d differs between the sweeps beyond its placement:\n%s\n%s", i, first[i]["report"], second[i]["report"])
		}
	}
}

// TestClusterSweepOnClosedCoordinator: a coordinator that is shutting
// down is unavailable, not a bad request.
func TestClusterSweepOnClosedCoordinator(t *testing.T) {
	co, h := newCoordinatorServer(t, []string{newWorker(t, workerOpts()).URL})
	co.Close()
	rec := postJSON(t, h, "/v1/cluster/sweep", wireRequest{Configs: []configRef{namedRef("EOLE_4_64")}, Workloads: []string{"gzip"}})
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), cluster.ErrClosed.Error()) {
		t.Errorf("sweep on a closed coordinator: %d %s, want 503 naming the cause", rec.Code, rec.Body.String())
	}
}
