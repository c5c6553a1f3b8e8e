package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"reflect"
	"strings"
	"sync"
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

// newCoordinator builds a coordinator (over a memory-only store unless
// opts names one) that is closed when the test ends, and checks then
// that nothing it started outlives Close: the goroutine count is back
// to what it was before New. Create the workers first — whatever a
// test starts after this must be stopped by a later Cleanup, which
// runs earlier.
func newCoordinator(t *testing.T, opts cluster.Options) *cluster.Coordinator {
	t.Helper()
	if opts.Store == nil {
		store, err := artifact.Open(artifact.Options{})
		if err != nil {
			t.Fatal(err)
		}
		opts.Store = store
	}
	check := goroutineCheck(t, "cluster.New")
	co, err := cluster.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		co.Close()
		check()
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

// relabel returns the report under label, as eoled serves it: a cell
// may have been answered by a simulation of the same machine under
// another name.
func relabel(r *eole.Report, label string) *eole.Report {
	if r.Config == label {
		return r
	}
	cp := *r
	cp.Config = label
	return &cp
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
		reports[i] = relabel(reports[i], reqs[i].Config.Label())
	}
	return marshalReports(t, reports)
}

// runReports waits for the run and decodes each index's relayed bytes
// under its request's label, as a coordinator's /v1/sweep serves them
// (nil for a failed cell), with the failed cells' errors joined.
func runReports(t *testing.T, run *cluster.Run, reqs []simsvc.Request) ([]*eole.Report, error) {
	t.Helper()
	<-run.Done()
	reports := make([]*eole.Report, len(reqs))
	var errs []error
	for i, req := range reqs {
		if err := run.Err(i); err != nil {
			errs = append(errs, err)
			continue
		}
		reports[i] = new(eole.Report)
		if err := json.Unmarshal(run.Encoded(i).AppendLabeled(nil, req.Config.Label()), reports[i]); err != nil {
			t.Fatal(err)
		}
	}
	return reports, errors.Join(errs...)
}

// serve puts a handler behind a real listener for clients that need a
// URL (cluster.RemoteSweep, workers).
func serve(t *testing.T, h http.Handler) string {
	t.Helper()
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv.URL
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
// sampled variant — posted to the coordinator's /v1/sweep returns
// reports byte-identical to the same sweep run in one process.
func TestClusterByteIdenticalToSingleNode(t *testing.T) {
	workers := []string{
		newWorker(t, workerOpts()).URL,
		newWorker(t, workerOpts()).URL,
		newWorker(t, workerOpts()).URL,
	}
	_, h := newCoordinatorServer(t, cluster.Options{Workers: workers})
	coordURL := serve(t, h)

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
			reports, err := cluster.RemoteSweep(t.Context(), coordURL, cfgs, []string{"gzip", "art"}, 1_000, 3_000, tc.sampling)
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
// the survivors, every cell must have a report, and the merged reports
// must still match a single-node run.
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
	run, err := co.Start(context.Background(), reqs, simsvc.Keys(reqs))
	if err != nil {
		t.Fatal(err)
	}
	completed := func() (n uint64) {
		for _, ws := range co.Workers() {
			n += ws.Completed
		}
		return n
	}
	for completed() == 0 {
		select {
		case <-run.Done():
			t.Fatal("the sweep ended before the kill")
		case <-time.After(time.Millisecond):
		}
	}
	victim.CloseClientConnections()
	victim.Close()
	reports, err := runReports(t, run, reqs)
	if err != nil {
		t.Fatalf("sweep must survive a killed worker: %v", err)
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
// /v1/sweep shards across workers, /v1/cluster/workers reports merged
// stats and where the cells went.
func TestClusterSweepEndpoint(t *testing.T) {
	w1, w2 := newWorker(t, workerOpts()), newWorker(t, workerOpts())
	_, h := newCoordinatorServer(t, cluster.Options{Workers: []string{w1.URL, w2.URL}})

	rec := postJSON(t, h, "/v1/sweep", wireRequest{
		Configs:   []configRef{namedRef("EOLE_4_64"), namedRef("Baseline_6_64")},
		Workloads: []string{"gzip", "art"},
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("cluster sweep: %d: %s", rec.Code, rec.Body.String())
	}
	var resp sweepResponse
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
		if res.Cached {
			t.Errorf("%s on %s: a cold cell came back cached", res.Config, res.Workload)
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
	// A dispatched cell is one request: 4 cells are exactly 4 POST
	// /v1/simulate, split as the coordinator placed them.
	var sims uint64
	for _, w := range st.Workers {
		if w.URL != w1.URL && w.URL != w2.URL {
			t.Errorf("cells placed on unknown worker %q", w.URL)
		}
		var ws statsResponse
		resp, err := http.Get(w.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&ws)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := ws.Endpoints["/v1/simulate"].Requests; got != w.Dispatched {
			t.Errorf("worker %s served %d /v1/simulate for %d dispatched cells", w.URL, got, w.Dispatched)
		}
		sims += ws.Endpoints["/v1/simulate"].Requests
	}
	if sims != 4 {
		t.Errorf("4 cells took %d /v1/simulate requests, want exactly 4", sims)
	}
}

// TestClusterErrorPaths covers the coordinator's sweep failure modes:
// malformed bodies, invalid sweeps, and a server that is not a
// coordinator at all.
func TestClusterErrorPaths(t *testing.T) {
	_, h := newCoordinatorServer(t, cluster.Options{Workers: []string{newWorker(t, workerOpts()).URL}})

	// Malformed JSON body.
	req := httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader([]byte("{nope")))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("malformed body: %d, want 400", rec.Code)
	}
	// Unknown field (strict decode).
	req = httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader([]byte(`{"confgs":["EOLE_4_64"]}`)))
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("unknown field: %d, want 400", rec.Code)
	}
	// Bad sweep content: unknown config and unknown workload.
	if rec := postJSON(t, h, "/v1/sweep", wireRequest{Configs: []configRef{namedRef("NoSuch")}}); rec.Code != http.StatusBadRequest {
		t.Errorf("unknown config: %d, want 400", rec.Code)
	}
	if rec := postJSON(t, h, "/v1/sweep", wireRequest{
		Configs: []configRef{namedRef("EOLE_4_64")}, Workloads: []string{"nope"},
	}); rec.Code != http.StatusBadRequest {
		t.Errorf("unknown workload: %d, want 400", rec.Code)
	}

	// Unusable peer lists are rejected at construction.
	store, err := artifact.Open(artifact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cluster.New(cluster.Options{Store: store}); err == nil {
		t.Error("New without workers must fail")
	}
	if _, err := cluster.New(cluster.Options{Workers: []string{"  "}, Store: store}); err == nil {
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
// injection on the dispatch path: one answers 500 for its first calls,
// the other opens with a 429 + Retry-After. The sweep must absorb both.
func TestClusterWorkerFaults(t *testing.T) {
	flaky, throttled := newWorker(t, workerOpts()), newWorker(t, workerOpts())
	var flakyCalls, throttleCalls atomic.Int64
	// wrap fronts a real worker with a transparent reverse proxy plus a
	// fault hook on POST /v1/simulate, the dispatch route.
	wrap := func(target string, f func(w http.ResponseWriter, r *http.Request) bool) *httptest.Server {
		u, err := url.Parse(target)
		if err != nil {
			t.Fatal(err)
		}
		inner := httputil.NewSingleHostReverseProxy(u)
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.Method == http.MethodPost && r.URL.Path == "/v1/simulate" && f(w, r) {
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
	run, err := co.Start(context.Background(), reqs, simsvc.Keys(reqs))
	if err != nil {
		t.Fatal(err)
	}
	reports, err := runReports(t, run, reqs)
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

// TestClusterVanishedCoordinatorLeavesNothingRunning: a coordinator
// that vanishes mid-cell — its connections cut, its redials refused,
// so it can send nothing more — leaves nothing running on the worker:
// the dispatch was the cell's only waiter, so the worker abandons the
// simulation when the connection drops.
func TestClusterVanishedCoordinatorLeavesNothingRunning(t *testing.T) {
	svc, err := simsvc.New(simsvc.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	worker := httptest.NewServer(newServer(svc, workerOpts()))
	t.Cleanup(worker.Close)

	var mu sync.Mutex
	var conns []net.Conn
	var gone atomic.Bool
	var dialer net.Dialer
	transport := &http.Transport{DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
		if gone.Load() {
			return nil, errors.New("the coordinator is gone")
		}
		c, err := dialer.DialContext(ctx, network, addr)
		if err == nil {
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
		}
		return c, err
	}}
	co := newCoordinator(t, cluster.Options{Workers: []string{worker.URL}, Client: &http.Client{Transport: transport}})
	cfg, err := eole.NamedConfig("EOLE_4_64")
	if err != nil {
		t.Fatal(err)
	}
	// Long enough to be running for as long as this test looks.
	reqs := []simsvc.Request{{Config: cfg, Workload: "mcf", Warmup: 1_000, Measure: 30_000_000}}
	run, err := co.Start(context.Background(), reqs, simsvc.Keys(reqs))
	if err != nil {
		t.Fatal(err)
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: stats %+v, %d in flight", what, svc.Stats(), svc.InFlight())
			}
		}
	}
	waitFor("the cell never started", func() bool { return svc.InFlight() == 1 })

	gone.Store(true)
	mu.Lock()
	for _, c := range conns {
		c.Close()
	}
	mu.Unlock()
	waitFor("the worker kept simulating for a vanished coordinator", func() bool {
		return svc.Stats().SimsAbandoned == 1 && svc.InFlight() == 0
	})
	select {
	case <-run.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("the run never gave the unreachable cell up")
	}
	if run.Err(0) == nil {
		t.Error("a cell whose coordinator can reach no worker must fail")
	}
}

// newCoordinatorServer stands a coordinator eoled over opts.Workers:
// its own store is the cluster's result tier, as in main.
func newCoordinatorServer(t *testing.T, opts cluster.Options) (*cluster.Coordinator, http.Handler) {
	t.Helper()
	store, err := artifact.Open(artifact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	opts.Store = store
	co := newCoordinator(t, opts)
	svc, err := simsvc.New(simsvc.Options{Parallelism: 1, Artifacts: store})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	sopts := workerOpts()
	sopts.coord = co
	return co, newServer(svc, sopts)
}

// dispatchedBy snapshots every worker's dispatch counter.
func dispatchedBy(co *cluster.Coordinator) (n []uint64) {
	for _, ws := range co.Workers() {
		n = append(n, ws.Dispatched)
	}
	return n
}

// TestClusterSweepRepeatedIsServedByTheCoordinator: the coordinator
// keeps what its workers relay, so the same sweep again dispatches
// nothing — every worker's counter stands still, every cell says
// cached — and the reports are the same bytes.
func TestClusterSweepRepeatedIsServedByTheCoordinator(t *testing.T) {
	co, h := newCoordinatorServer(t, cluster.Options{Workers: []string{newWorker(t, workerOpts()).URL, newWorker(t, workerOpts()).URL}})
	body := wireRequest{
		Configs:   []configRef{namedRef("EOLE_4_64"), namedRef("Baseline_6_64")},
		Workloads: []string{"gzip", "art"},
	}
	sweep := func() []map[string]json.RawMessage {
		t.Helper()
		rec := postJSON(t, h, "/v1/sweep", body)
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

	first := sweep()
	before := dispatchedBy(co)
	if before[0]+before[1] != 4 {
		t.Fatalf("first sweep dispatched %v, want 4 cells in all", before)
	}
	second := sweep()
	if after := dispatchedBy(co); !reflect.DeepEqual(after, before) {
		t.Errorf("the repeated sweep dispatched: %v → %v", before, after)
	}
	for i := range first {
		if string(first[i]["cached"]) != "false" || string(second[i]["cached"]) != "true" {
			t.Errorf("cell %d: cached=%s, then cached=%s; want false, then true", i, first[i]["cached"], second[i]["cached"])
		}
		delete(first[i], "cached")
		delete(second[i], "cached")
		if !reflect.DeepEqual(first[i], second[i]) || first[i]["report"] == nil {
			t.Errorf("cell %d differs between the sweeps beyond cached:\n%s\n%s", i, first[i]["report"], second[i]["report"])
		}
	}
}

// TestClusterSweepOnClosedCoordinator: a coordinator that is shutting
// down is unavailable, not a bad request, on either sweep route.
func TestClusterSweepOnClosedCoordinator(t *testing.T) {
	co, h := newCoordinatorServer(t, cluster.Options{Workers: []string{newWorker(t, workerOpts()).URL}})
	co.Close()
	for _, path := range []string{"/v1/sweep", "/v1/cluster/sweep"} {
		rec := postJSON(t, h, path, wireRequest{Configs: []configRef{namedRef("EOLE_4_64")}, Workloads: []string{"gzip"}})
		if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), cluster.ErrClosed.Error()) {
			t.Errorf("%s on a closed coordinator: %d %s, want 503 naming the cause", path, rec.Code, rec.Body.String())
		}
	}
}

// TestCoordinatorSweepIsTheSweep: a coordinator serves a sweep through
// the one sweep handler on both its routes — the same bytes and entity
// tag as a single node's /v1/sweep for the same cold cells — and
// revalidates it with a 304 that dispatches nothing.
func TestCoordinatorSweepIsTheSweep(t *testing.T) {
	body := wireRequest{
		Configs:   []configRef{namedRef("EOLE_4_64"), namedRef("Baseline_VP_6_64")},
		Workloads: []string{"gzip", "art"},
	}
	post := func(h http.Handler, path string, hdr map[string]string) *httptest.ResponseRecorder {
		t.Helper()
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		return doReq(h, http.MethodPost, path, b, hdr)
	}
	single := post(newServer(newTestService(t, simsvc.Options{Parallelism: 2}), workerOpts()), "/v1/sweep", nil)
	if single.Code != http.StatusOK || single.Header().Get("ETag") == "" {
		t.Fatalf("single node: %d, ETag %q: %.200s", single.Code, single.Header().Get("ETag"), single.Body.String())
	}
	for _, path := range []string{"/v1/sweep", "/v1/cluster/sweep"} {
		// A fleet of its own per route, so every cell is cold on each.
		co, h := newCoordinatorServer(t, cluster.Options{Workers: []string{newWorker(t, workerOpts()).URL, newWorker(t, workerOpts()).URL}})
		rec := post(h, path, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("coordinator %s: %d: %.200s", path, rec.Code, rec.Body.String())
		}
		if !bytes.Equal(rec.Body.Bytes(), single.Body.Bytes()) {
			t.Errorf("coordinator %s differs from a single node's /v1/sweep\ncoordinator:\n%.300s\nsingle:\n%.300s", path, rec.Body.Bytes(), single.Body.Bytes())
		}
		etag := rec.Header().Get("ETag")
		if etag != single.Header().Get("ETag") {
			t.Errorf("coordinator %s: ETag %q, single node %q", path, etag, single.Header().Get("ETag"))
		}
		before := dispatchedBy(co)
		if before[0]+before[1] != 4 {
			t.Errorf("coordinator %s dispatched %v, want the 4 cells across its workers", path, before)
		}
		if nm := post(h, path, map[string]string{"If-None-Match": etag}); nm.Code != http.StatusNotModified || nm.Body.Len() != 0 {
			t.Errorf("coordinator %s revalidation: %d with %d body bytes, want a bare 304", path, nm.Code, nm.Body.Len())
		}
		if after := dispatchedBy(co); !reflect.DeepEqual(after, before) {
			t.Errorf("coordinator %s: the 304 dispatched: %v → %v", path, before, after)
		}
	}
}

// TestRemoteSweep: cluster.RemoteSweep against a single node and
// against a coordinator returns the reports of a local sweep — an
// anonymous inline config, an awkwardly named one and a sampled cell
// included.
func TestRemoteSweep(t *testing.T) {
	base, err := eole.NamedConfig("EOLE_4_64")
	if err != nil {
		t.Fatal(err)
	}
	anon, awkward := base, base
	anon.Name, anon.PRF.Banks = "", 2
	awkward.Name = "a\"b<c>\u2028é"
	cfgs := []eole.Config{base, anon, awkward}
	wls := []string{"gzip", "art"}
	sampled := &eole.SamplingSpec{Windows: 4, Warm: 2_000}

	_, coord := newCoordinatorServer(t, cluster.Options{Workers: []string{newWorker(t, workerOpts()).URL, newWorker(t, workerOpts()).URL}})
	servers := map[string]string{"single node": newWorker(t, workerOpts()).URL, "coordinator": serve(t, coord)}
	for _, tc := range []struct {
		cfgs     []eole.Config
		wls      []string
		sampling *eole.SamplingSpec
	}{
		{cfgs, wls, nil},
		{cfgs[1:2], wls[:1], sampled},
	} {
		want := singleNode(t, simsvc.ApplySampling(simsvc.Cross(tc.cfgs, tc.wls, 1_000, 3_000), tc.sampling))
		for name, url := range servers {
			reports, err := cluster.RemoteSweep(t.Context(), url, tc.cfgs, tc.wls, 1_000, 3_000, tc.sampling)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if got := marshalReports(t, reports); !bytes.Equal(got, want) {
				t.Errorf("%s (sampled %v): remote sweep differs from the local one\nremote:\n%.300s\nlocal:\n%.300s", name, tc.sampling != nil, got, want)
			}
		}
	}
}

// TestRemoteSweepCancel: canceling a RemoteSweep mid-run ends the
// simulation on the server, which abandons it, and leaves nothing
// running there. This is how the blocking sweep clients (eolesim
// -server, experiments -server) cancel: Ctrl-C drops their request.
func TestRemoteSweepCancel(t *testing.T) {
	svc := newTestService(t, simsvc.Options{Parallelism: 1})
	srv := httptest.NewServer(newServer(svc, serverOptions{}))
	t.Cleanup(srv.Close)
	cfg, err := eole.NamedConfig("EOLE_4_64")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(t.Context())
	defer cancel()
	errc := make(chan error, 1)
	go func() {
		_, err := cluster.RemoteSweep(ctx, srv.URL, []eole.Config{cfg}, []string{"mcf"}, 1_000, 30_000_000, nil)
		errc <- err
	}()
	for deadline := time.Now().Add(10 * time.Second); svc.InFlight() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the sweep's cell never started")
		}
	}
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Errorf("RemoteSweep after cancel: %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RemoteSweep did not return within 5s of its context's cancel")
	}
	for deadline := time.Now().Add(5 * time.Second); svc.Stats().SimsAbandoned == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("sims_abandoned still 0 5s after the cancel (stats %+v)", svc.Stats())
		}
	}
}
