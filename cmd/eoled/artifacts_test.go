package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"eole"
	"eole/internal/artifact"
	"eole/internal/cluster"
	"eole/internal/obs"
	"eole/internal/simsvc"
	"eole/internal/trace"
	"eole/internal/workload"
)

// newStoreHandler builds a service backed by an artifact store rooted
// at dir (memory-only when dir is empty) plus its HTTP handler,
// returning both.
func newStoreHandler(t *testing.T, dir string, peer artifact.Peer) (*simsvc.Service, http.Handler) {
	t.Helper()
	store, err := artifact.Open(artifact.Options{Dir: dir, Peer: peer})
	if err != nil {
		t.Fatal(err)
	}
	svc := newTestService(t, simsvc.Options{Parallelism: 2, Artifacts: store})
	return svc, newServer(svc, serverOptions{defaultWarmup: 2_000, defaultMeasure: 5_000, maxUops: 1_000_000, version: "test"})
}

// recordedTrace returns a valid trace artifact payload for the named
// workload plus its content address.
func recordedTrace(t *testing.T, name string) (key string, payload []byte) {
	t.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.Record(w, 70_000)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return simsvc.TraceKeyOf(w), buf.Bytes()
}

func doReq(h http.Handler, method, path string, body []byte, hdr map[string]string) *httptest.ResponseRecorder {
	var r *http.Request
	if body != nil {
		r = httptest.NewRequest(method, path, bytes.NewReader(body))
	} else {
		r = httptest.NewRequest(method, path, nil)
	}
	for k, v := range hdr {
		r.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	return rec
}

// TestArtifactEndpointRoundTrip uploads a validated trace and reads it
// back through GET, HEAD and If-None-Match.
func TestArtifactEndpointRoundTrip(t *testing.T) {
	_, h := newStoreHandler(t, t.TempDir(), nil)
	key, payload := recordedTrace(t, "gzip")
	path := "/v1/artifacts/trace/" + key

	if rec := doReq(h, http.MethodPut, path, payload, nil); rec.Code != http.StatusNoContent {
		t.Fatalf("PUT: status %d: %s", rec.Code, rec.Body.String())
	}
	rec := doReq(h, http.MethodGet, path, nil, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET: status %d: %s", rec.Code, rec.Body.String())
	}
	if !bytes.Equal(rec.Body.Bytes(), payload) {
		t.Error("GET returned different bytes than PUT stored")
	}
	etag := rec.Header().Get("ETag")
	if want := traceETag(payload); etag != want {
		t.Errorf("ETag = %q, want the payload digest %q", etag, want)
	}
	// HEAD: same headers, no body.
	rec = doReq(h, http.MethodHead, path, nil, nil)
	if rec.Code != http.StatusOK || rec.Body.Len() != 0 {
		t.Errorf("HEAD: status %d, body %d bytes (want 200 and empty)", rec.Code, rec.Body.Len())
	}
	if got := rec.Header().Get("Content-Length"); got != fmt.Sprint(len(payload)) {
		t.Errorf("HEAD Content-Length = %q, want %d", got, len(payload))
	}
	// Conditional GET: the tag names the bytes, so a matching
	// If-None-Match is a 304 with no body.
	rec = doReq(h, http.MethodGet, path, nil, map[string]string{"If-None-Match": etag})
	if rec.Code != http.StatusNotModified || rec.Body.Len() != 0 {
		t.Errorf("conditional GET: status %d, body %d bytes (want 304 and empty)", rec.Code, rec.Body.Len())
	}
	// A key the store does not hold is a plain 404.
	miss := strings.Repeat("ab", 32)
	if rec := doReq(h, http.MethodGet, "/v1/artifacts/trace/"+miss, nil, nil); rec.Code != http.StatusNotFound {
		t.Errorf("missing artifact: status %d, want 404", rec.Code)
	}
}

// TestArtifactsServeTraceOfServiceWithOwnStore: a service given no
// store opens its own, so the trace its first cell recorded is served
// on /v1/artifacts/trace/{key} like any stored artifact.
func TestArtifactsServeTraceOfServiceWithOwnStore(t *testing.T) {
	svc := newTestService(t, simsvc.Options{})
	h := newServer(svc, serverOptions{defaultWarmup: 2_000, defaultMeasure: 5_000, maxUops: 1_000_000})
	if rec := postJSON(t, h, "/v1/simulate", wireRequest{Config: namedRef("EOLE_4_64"), Workload: "gzip"}); rec.Code != http.StatusOK {
		t.Fatalf("simulate: %d: %s", rec.Code, rec.Body.String())
	}
	w, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	rec := doReq(h, http.MethodGet, "/v1/artifacts/trace/"+simsvc.TraceKeyOf(w), nil, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET recorded trace: status %d: %s", rec.Code, rec.Body.String())
	}
	tr, err := trace.Parse(rec.Body.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if held := svc.Traces(); len(held) != 1 || tr.Workload != "gzip" || tr.Count != held[0].Uops {
		t.Errorf("served a %d-µ-op trace of %q; the service holds %+v", tr.Count, tr.Workload, held)
	}
}

// traceETag is the tag a trace artifact is served under: a digest of
// its bytes.
func traceETag(payload []byte) string {
	sum := sha256.Sum256(payload)
	return `"t-` + hex.EncodeToString(sum[:16]) + `"`
}

// TestTraceETagFollowsContent: a trace key names no length, so a
// client revalidating a shorter trace after a longer one replaced it
// under the same key gets the new bytes, not a 304. A result's tag
// stays its key.
func TestTraceETagFollowsContent(t *testing.T) {
	_, h := newStoreHandler(t, "", nil)
	key, short := recordedTrace(t, "gzip")
	path := "/v1/artifacts/trace/" + key
	if rec := doReq(h, http.MethodPut, path, short, nil); rec.Code != http.StatusNoContent {
		t.Fatalf("PUT: status %d: %s", rec.Code, rec.Body.String())
	}
	etag := doReq(h, http.MethodGet, path, nil, nil).Header().Get("ETag")

	w, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	var long bytes.Buffer
	if err := trace.Record(w, 140_000).Write(&long); err != nil {
		t.Fatal(err)
	}
	if rec := doReq(h, http.MethodPut, path, long.Bytes(), nil); rec.Code != http.StatusNoContent {
		t.Fatalf("PUT longer: status %d: %s", rec.Code, rec.Body.String())
	}
	rec := doReq(h, http.MethodGet, path, nil, map[string]string{"If-None-Match": etag})
	if rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), long.Bytes()) {
		t.Fatalf("revalidating the short trace: status %d with %d bytes, want 200 with the %d-byte longer trace",
			rec.Code, rec.Body.Len(), long.Len())
	}
	if got := rec.Header().Get("ETag"); got == etag || got != traceETag(long.Bytes()) {
		t.Errorf("longer trace served under ETag %q (short one's %q)", got, etag)
	}

	rep := eole.Report{Config: "EOLE_4_64", Benchmark: "gzip", Cycles: 7, Committed: 9, IPC: 1.25}
	res, err := json.Marshal(&rep)
	if err != nil {
		t.Fatal(err)
	}
	rkey := strings.Repeat("cd", 32)
	if rec := doReq(h, http.MethodPut, "/v1/artifacts/result/"+rkey, res, nil); rec.Code != http.StatusNoContent {
		t.Fatalf("PUT result: status %d: %s", rec.Code, rec.Body.String())
	}
	if got := doReq(h, http.MethodGet, "/v1/artifacts/result/"+rkey, nil, nil).Header().Get("ETag"); got != `"`+rkey+`"` {
		t.Errorf("result ETag = %q, want its quoted key", got)
	}
}

// TestArtifactEndpointHostileInputs drives malformed references and
// unverifiable payloads at the endpoint: everything must be rejected
// with a 400 before touching the store.
func TestArtifactEndpointHostileInputs(t *testing.T) {
	svc, h := newStoreHandler(t, t.TempDir(), nil)
	key, payload := recordedTrace(t, "gzip")

	bad := []struct{ name, path string }{
		{"unknown kind", "/v1/artifacts/nope/" + key},
		{"uppercase key", "/v1/artifacts/trace/" + strings.ToUpper(key)},
		{"non-hex key", "/v1/artifacts/trace/zz" + key[2:]},
		{"short key", "/v1/artifacts/trace/a"},
		{"long key", "/v1/artifacts/trace/" + strings.Repeat("ab", 65)},
		{"dotted key", "/v1/artifacts/trace/ab..cd"},
	}
	for _, tc := range bad {
		for _, method := range []string{http.MethodGet, http.MethodPut} {
			if rec := doReq(h, method, tc.path, payload, nil); rec.Code != http.StatusBadRequest {
				t.Errorf("%s %s: status %d, want 400", method, tc.name, rec.Code)
			}
		}
	}

	// A payload that is not a trace at all.
	if rec := doReq(h, http.MethodPut, "/v1/artifacts/trace/"+key, []byte("garbage"), nil); rec.Code != http.StatusBadRequest {
		t.Errorf("garbage trace: status %d, want 400", rec.Code)
	}
	// A real trace stored under the wrong key (cache poisoning).
	otherKey, _ := recordedTrace(t, "crafty")
	if rec := doReq(h, http.MethodPut, "/v1/artifacts/trace/"+otherKey, payload, nil); rec.Code != http.StatusBadRequest {
		t.Errorf("mismatched trace key: status %d, want 400", rec.Code)
	}
	// A result that is not a report.
	if rec := doReq(h, http.MethodPut, "/v1/artifacts/result/"+key, []byte(`{"no_such_field":1}`), nil); rec.Code != http.StatusBadRequest {
		t.Errorf("bogus result: status %d, want 400", rec.Code)
	}
	// A genuine report in anything but its canonical encoding: results
	// are spliced into replies verbatim, so it must not enter — while
	// the canonical bytes of the same report do.
	canon, err := json.Marshal(&eole.Report{Config: "EOLE_4_64", Benchmark: "gzip", Cycles: 10, Committed: 20, IPC: 2})
	if err != nil {
		t.Fatal(err)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, canon, "", " "); err != nil {
		t.Fatal(err)
	}
	if rec := doReq(h, http.MethodPut, "/v1/artifacts/result/"+key, indented.Bytes(), nil); rec.Code != http.StatusBadRequest {
		t.Errorf("re-indented result: status %d, want 400", rec.Code)
	}
	if rec := doReq(h, http.MethodPut, "/v1/artifacts/result/"+otherKey, canon, nil); rec.Code != http.StatusNoContent {
		t.Errorf("canonical result: status %d, want 204", rec.Code)
	}
	// Nothing hostile may have landed in the store.
	if _, err := svc.Artifacts().GetLocal(artifact.KindTrace, key); err == nil {
		t.Error("a rejected upload reached the store")
	}
}

// TestSimulateConditionalRequest: a client revalidating a previous
// /v1/simulate 200 with If-None-Match gets a 304 with no body — and
// the short-circuit shows up in the 304 metric.
func TestSimulateConditionalRequest(t *testing.T) {
	_, h := newStoreHandler(t, "", nil)
	body, _ := json.Marshal(wireRequest{Config: namedRef("EOLE_4_64"), Workload: "gzip"})

	rec := doReq(h, http.MethodPost, "/v1/simulate", body, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("simulate: status %d: %s", rec.Code, rec.Body.String())
	}
	etag := rec.Header().Get("ETag")
	if etag == "" || !strings.HasPrefix(etag, `"r-`) {
		t.Fatalf("simulate ETag = %q, want a r- tag", etag)
	}
	rec = doReq(h, http.MethodPost, "/v1/simulate", body, map[string]string{"If-None-Match": etag})
	if rec.Code != http.StatusNotModified || rec.Body.Len() != 0 {
		t.Fatalf("revalidation: status %d, body %d bytes (want 304 and empty)", rec.Code, rec.Body.Len())
	}
	// A stale (different) tag simulates — here it's a cache hit — and
	// returns the full report with the current tag.
	rec = doReq(h, http.MethodPost, "/v1/simulate", body, map[string]string{"If-None-Match": `"r-0000000000000000"`})
	if rec.Code != http.StatusOK || rec.Header().Get("ETag") != etag {
		t.Errorf("stale-tag request: status %d, ETag %q (want 200 with %q)", rec.Code, rec.Header().Get("ETag"), etag)
	}

	mrec := doReq(h, http.MethodGet, "/metrics", nil, nil)
	if !strings.Contains(mrec.Body.String(), `eole_http_not_modified_total{path="/v1/simulate"} 1`) {
		t.Errorf("missing 304 counter:\n%s", grepMetric(mrec.Body.String(), "eole_http_not_modified_total"))
	}
	// The artifact families (registered only on store-backed servers,
	// so the base obs test never sees them) must lint clean too.
	if !strings.Contains(mrec.Body.String(), "eole_artifact_hits_total{") {
		t.Error("store-backed server exposes no artifact metrics")
	}
	if err := obs.Lint(mrec.Body.Bytes()); err != nil {
		t.Errorf("metrics lint: %v", err)
	}
}

// TestSweepConditionalRequest: sweeps revalidate the same way, with
// the tag covering every cell in order.
func TestSweepConditionalRequest(t *testing.T) {
	_, h := newStoreHandler(t, "", nil)
	body, _ := json.Marshal(wireRequest{
		Configs:   []configRef{namedRef("EOLE_4_64"), namedRef("Baseline_6_64")},
		Workloads: []string{"gzip"},
	})
	rec := doReq(h, http.MethodPost, "/v1/sweep", body, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("sweep: status %d: %s", rec.Code, rec.Body.String())
	}
	etag := rec.Header().Get("ETag")
	if !strings.HasPrefix(etag, `"s-`) {
		t.Fatalf("sweep ETag = %q, want a s- tag", etag)
	}
	rec = doReq(h, http.MethodPost, "/v1/sweep", body, map[string]string{"If-None-Match": etag})
	if rec.Code != http.StatusNotModified || rec.Body.Len() != 0 {
		t.Fatalf("revalidation: status %d, body %d bytes (want 304 and empty)", rec.Code, rec.Body.Len())
	}
	// Reordering the cells changes the response, so it must change the
	// tag too.
	body2, _ := json.Marshal(wireRequest{
		Configs:   []configRef{namedRef("Baseline_6_64"), namedRef("EOLE_4_64")},
		Workloads: []string{"gzip"},
	})
	rec = doReq(h, http.MethodPost, "/v1/sweep", body2, map[string]string{"If-None-Match": etag})
	if rec.Code != http.StatusOK {
		t.Errorf("reordered sweep matched the old tag: status %d, want 200", rec.Code)
	}
	// So does spelling a workload another way: the cells share their
	// keys, but the reply echoes the name as requested.
	body3, _ := json.Marshal(wireRequest{
		Configs:   []configRef{namedRef("EOLE_4_64"), namedRef("Baseline_6_64")},
		Workloads: []string{"164.gzip"},
	})
	rec = doReq(h, http.MethodPost, "/v1/sweep", body3, map[string]string{"If-None-Match": etag})
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"workload":"164.gzip"`) {
		t.Errorf("respelled sweep matched the old tag: status %d, want 200 echoing 164.gzip", rec.Code)
	}
}

// TestArtifactPersistenceAcrossServers is the restart acceptance: a
// request simulated by server A is served by a later server B over the
// same artifact directory from disk, without simulating anything.
func TestArtifactPersistenceAcrossServers(t *testing.T) {
	dir := t.TempDir()
	body, _ := json.Marshal(wireRequest{Config: namedRef("EOLE_4_64"), Workload: "crafty"})

	svcA, hA := newStoreHandler(t, dir, nil)
	recA := doReq(hA, http.MethodPost, "/v1/simulate", body, nil)
	if recA.Code != http.StatusOK {
		t.Fatalf("server A simulate: status %d: %s", recA.Code, recA.Body.String())
	}
	if st := svcA.Stats(); st.SimsRun != 1 {
		t.Fatalf("server A ran %d sims, want 1", st.SimsRun)
	}
	svcA.Close()

	svcB, hB := newStoreHandler(t, dir, nil)
	recB := doReq(hB, http.MethodPost, "/v1/simulate", body, nil)
	if recB.Code != http.StatusOK {
		t.Fatalf("server B simulate: status %d: %s", recB.Code, recB.Body.String())
	}
	st := svcB.Stats()
	if st.SimsRun != 0 || st.DiskHits != 1 {
		t.Errorf("server B simsRun=%d diskHits=%d, want 0/1 (served from the fabric)", st.SimsRun, st.DiskHits)
	}
	if !bytes.Equal(recA.Body.Bytes(), recB.Body.Bytes()) {
		t.Error("fabric-served response differs from the original")
	}
	// The store's own accounting must agree on /v1/stats.
	var stats statsResponse
	if rec := getJSON(t, hB, "/v1/stats", &stats); rec.Code != http.StatusOK {
		t.Fatalf("stats: status %d", rec.Code)
	}
	var diskHits uint64
	for _, ts := range stats.Artifacts {
		if ts.Tier == "disk" && ts.Kind == "result" {
			diskHits = ts.Hits
		}
	}
	if diskHits != 1 {
		t.Errorf("artifact stats report %d result disk hits, want 1", diskHits)
	}
}

// TestPeerFetchAcrossServices is the distribution acceptance at the
// store level: service A (peer → relay) records and pushes; service B
// — a different machine with its own empty directory — replays the
// trace it never recorded and serves the result it never simulated,
// both fetched from the relay over /v1/artifacts.
func TestPeerFetchAcrossServices(t *testing.T) {
	_, relayHandler := newStoreHandler(t, t.TempDir(), nil)
	relay := httptest.NewServer(relayHandler)
	t.Cleanup(relay.Close)
	peer := artifact.NewHTTPPeer(relay.URL)

	req := wireRequest{Config: namedRef("EOLE_4_64"), Workload: "gzip"}
	body, _ := json.Marshal(req)

	svcA, hA := newStoreHandler(t, t.TempDir(), peer)
	recA := doReq(hA, http.MethodPost, "/v1/simulate", body, nil)
	if recA.Code != http.StatusOK {
		t.Fatalf("service A: status %d: %s", recA.Code, recA.Body.String())
	}
	if st := svcA.Stats(); st.TracesRecorded != 1 || st.SimsRun != 1 {
		t.Fatalf("service A recorded=%d simsRun=%d, want 1/1", st.TracesRecorded, st.SimsRun)
	}
	// The result is spilled and pushed to the relay after the response
	// is released; Close waits for that.
	svcA.Close()

	// A different config, same workload: B must fetch A's trace from
	// the relay instead of re-interpreting the workload.
	other, _ := json.Marshal(wireRequest{Config: namedRef("Baseline_6_64"), Workload: "gzip"})
	svcB, hB := newStoreHandler(t, t.TempDir(), peer)
	recB := doReq(hB, http.MethodPost, "/v1/simulate", other, nil)
	if recB.Code != http.StatusOK {
		t.Fatalf("service B: status %d: %s", recB.Code, recB.Body.String())
	}
	st := svcB.Stats()
	if st.TracesRecorded != 0 || st.TraceReplays != 1 || st.TraceDiskLoads != 1 {
		t.Errorf("service B recorded=%d replays=%d loads=%d, want 0/1/1 (trace fetched from relay)",
			st.TracesRecorded, st.TraceReplays, st.TraceDiskLoads)
	}
	var peerHits uint64
	for _, ts := range svcB.Artifacts().Stats() {
		if ts.Tier == "peer" && ts.Kind == "trace" {
			peerHits = ts.Hits
		}
	}
	if peerHits != 1 {
		t.Errorf("service B made %d peer trace fetches, want 1", peerHits)
	}

	// And the exact request A answered is served to B's clients from
	// the relayed result, without B simulating it.
	recB2 := doReq(hB, http.MethodPost, "/v1/simulate", body, nil)
	if recB2.Code != http.StatusOK {
		t.Fatalf("service B repeat: status %d", recB2.Code)
	}
	if got := svcB.Stats().SimsRun; got != 1 {
		t.Errorf("service B ran %d sims after the relayed repeat, want 1 (result fetched, not simulated)", got)
	}
	if !bytes.Equal(recA.Body.Bytes(), recB2.Body.Bytes()) {
		t.Error("relayed result differs from the original")
	}
}

// TestClusterTraceDistribution is the cluster acceptance: with the
// coordinator's store (which trace-lead gating pays on) and every
// worker's artifact peer pointed at the coordinator, a (4 configs × 2
// workloads) sweep interprets each workload exactly once fleet-wide,
// the coordinator ends up holding
// both traces, and the merged reports are byte-identical to a
// single-node run. Only traces travel through the peer: the
// coordinator owns the result tier for what it dispatches, so its
// /v1/artifacts/result/* sees no request at all, while it holds every
// result the dispatches relayed.
func TestClusterTraceDistribution(t *testing.T) {
	coordSvc, coordHandler := newStoreHandler(t, "", nil) // diskless relay: memory tier only
	// Artifact traffic reaching the coordinator, by method and kind.
	var mu sync.Mutex
	traffic := make(map[string]int)
	coordSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if rest, ok := strings.CutPrefix(r.URL.Path, "/v1/artifacts/"); ok {
			kind, _, _ := strings.Cut(rest, "/")
			mu.Lock()
			traffic[r.Method+" "+kind]++
			mu.Unlock()
		}
		coordHandler.ServeHTTP(w, r)
	}))
	t.Cleanup(coordSrv.Close)
	peer := artifact.NewHTTPPeer(coordSrv.URL)

	var workerSvcs []*simsvc.Service
	var urls []string
	for i := 0; i < 2; i++ {
		svc, h := newStoreHandler(t, t.TempDir(), peer)
		srv := httptest.NewServer(h)
		t.Cleanup(srv.Close)
		workerSvcs = append(workerSvcs, svc)
		urls = append(urls, srv.URL)
	}
	co := newCoordinator(t, cluster.Options{Workers: urls, Store: coordSvc.Artifacts()})

	cfgs := make([]eole.Config, 0, 4)
	for _, name := range []string{"EOLE_4_64", "EOLE_6_64", "Baseline_6_64", "Baseline_VP_6_64"} {
		cfg, err := eole.NamedConfig(name)
		if err != nil {
			t.Fatal(err)
		}
		cfgs = append(cfgs, cfg)
	}
	reqs := simsvc.Cross(cfgs, []string{"gzip", "crafty"}, 1_000, 3_000)
	run, err := co.Start(context.Background(), reqs, simsvc.Keys(reqs))
	if err != nil {
		t.Fatal(err)
	}
	reports, err := runReports(t, run, reqs)
	if err != nil {
		t.Fatal(err)
	}
	got := marshalReports(t, reports)
	if want := singleNode(t, reqs); !bytes.Equal(got, want) {
		t.Errorf("shared-trace cluster sweep diverged from single-node result\ncluster:\n%.400s\nsingle:\n%.400s", got, want)
	}

	// The lead gating plus the coordinator relay make recording counts
	// deterministic: exactly one recording per workload fleet-wide —
	// the lead records and pushes before its cell completes, so every
	// later cell (on any worker) finds the trace locally or on the
	// relay.
	var recorded uint64
	for _, svc := range workerSvcs {
		recorded += svc.Stats().TracesRecorded
	}
	if recorded != 2 {
		t.Errorf("fleet recorded %d traces for 2 workloads, want exactly 2", recorded)
	}
	// The relay must hold both traces (pushed by the recording leads).
	for _, wl := range []string{"gzip", "crafty"} {
		w, err := workload.ByName(wl)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := coordSvc.Artifacts().GetLocal(artifact.KindTrace, simsvc.TraceKeyOf(w)); err != nil {
			t.Errorf("coordinator relay does not hold the %s trace: %v", wl, err)
		}
	}
	// Workers push a trace after the cell that recorded it has answered;
	// closing them waits for that.
	for _, svc := range workerSvcs {
		svc.Close()
	}
	mu.Lock()
	defer mu.Unlock()
	if traffic["GET result"] != 0 || traffic["PUT result"] != 0 {
		t.Errorf("workers sent result traffic to the coordinator's artifact endpoint: %v", traffic)
	}
	if traffic["PUT trace"] != 2 {
		t.Errorf("%d trace uploads for 2 workloads, want each exactly once: %v", traffic["PUT trace"], traffic)
	}
	for _, req := range reqs {
		if _, err := coordSvc.Artifacts().GetLocal(artifact.KindResult, simsvc.KeyOf(req).String()); err != nil {
			t.Errorf("coordinator does not hold the relayed result of %s on %s: %v", req.Config.Label(), req.Workload, err)
		}
	}
	for _, svc := range workerSvcs {
		for _, ts := range svc.Artifacts().Stats() {
			if ts.Tier == "peer" && ts.Kind == "result" && ts.Hits+ts.Misses+ts.Pushes != 0 {
				t.Errorf("a worker's peer tier saw result traffic: %+v", ts)
			}
		}
	}
}
