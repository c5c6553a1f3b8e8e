package main

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"eole"
	"eole/internal/cluster"
	"eole/internal/simsvc"
)

// The byte-identity wall of the spliced route. Every report eoled
// serves is stored canonical bytes with the requested label spliced in
// front; whatever path serves it — a fresh simulation, the result map,
// the disk tier of a reopened store, /v1/simulate, /v1/sweep, or a
// coordinator's /v1/sweep relaying a worker's report — it
// must equal, byte for byte once compacted, what encoding/json writes
// for the in-process report relabeled.

const (
	wallWarmup  = 300
	wallMeasure = 1_500
)

// wallCell is one cell of the wall: how to ask for it and the bytes
// every reply must carry for it.
type wallCell struct {
	ref      configRef
	label    string
	workload string
	sampling *eole.SamplingSpec
	rep      *eole.Report // the in-process report, relabeled
	want     []byte       // json.Marshal(rep)
}

func (c wallCell) simulate() wireRequest {
	return wireRequest{Config: c.ref, Workload: c.workload, Warmup: wallWarmup, Measure: wallMeasure, Sampling: c.sampling}
}

// wallConfigs is every named config plus the three labels the splice
// has to get right without a simulation of their own: an alias of a
// named config, the same machine with no name at all, and a name
// encoding/json escapes three different ways (quote, HTML, U+2028).
func wallConfigs(t *testing.T) []configRef {
	t.Helper()
	var refs []configRef
	for _, name := range eole.ConfigNames() {
		refs = append(refs, namedRef(name))
	}
	base, err := eole.NamedConfig("EOLE_4_64")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"alias", "", "a\"b<c>\u2028"} {
		cfg := base
		cfg.Name = name
		refs = append(refs, inlineRef(cfg))
	}
	return refs
}

// newWallCell simulates the cell in-process: the reference.
func newWallCell(t *testing.T, ref configRef, wl string, sampling *eole.SamplingSpec) wallCell {
	t.Helper()
	cfg, err := ref.resolve()
	if err != nil {
		t.Fatal(err)
	}
	w, err := eole.WorkloadByName(wl)
	if err != nil {
		t.Fatal(err)
	}
	var opts []eole.SimOption
	if sampling != nil {
		opts = append(opts, eole.WithSampling(*sampling))
	}
	rep, err := eole.Simulate(cfg, w, wallWarmup, wallMeasure, opts...)
	if err != nil {
		t.Fatal(err)
	}
	rep = relabel(rep, cfg.Label())
	want, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return wallCell{ref: ref, label: cfg.Label(), workload: wl, sampling: sampling, rep: rep, want: want}
}

// check compares one served report with the cell's reference.
func (c wallCell) check(t *testing.T, where string, served []byte) {
	t.Helper()
	var got bytes.Buffer
	if err := json.Compact(&got, served); err != nil {
		t.Errorf("%s: %s on %s: report is not JSON: %v", where, c.label, c.workload, err)
		return
	}
	if !bytes.Equal(got.Bytes(), c.want) {
		t.Errorf("%s: %s on %s: served report differs from json.Marshal of the relabeled report\n got %.120s\nwant %.120s",
			where, c.label, c.workload, got.Bytes(), c.want)
	}
}

// wallWorkloads is the wall's workload axis.
var wallWorkloads = []string{"gzip", "mcf", "namd", "hmmer"}

// wallGrid simulates wallConfigs × wallWorkloads in-process,
// config-major: the order a sweep answers in.
func wallGrid(t *testing.T, refs []configRef) (grid []wallCell) {
	t.Helper()
	for _, ref := range refs {
		for _, wl := range wallWorkloads {
			grid = append(grid, newWallCell(t, ref, wl, nil))
		}
	}
	return grid
}

func TestSplicedReportsAreByteIdentical(t *testing.T) {
	refs, wls := wallConfigs(t), wallWorkloads
	grid := wallGrid(t, refs)
	sampled := newWallCell(t, namedRef("EOLE_4_64"), "gzip", &eole.SamplingSpec{Windows: 3, Warm: 200, DetailWarmup: 50})
	// The /v1/simulate form: one cell per label kind, plus the sampled one.
	singles := []wallCell{grid[0], grid[len(grid)-3*len(wls)], grid[len(grid)-2*len(wls)], grid[len(grid)-len(wls)], sampled}
	sweepBody := wireRequest{Configs: refs, Workloads: wls, Warmup: wallWarmup, Measure: wallMeasure}

	// serve asks one server for everything and checks every report.
	// wantCached, when set, is what every sweep cell must report.
	serve := func(where string, h http.Handler, wantCached *bool) {
		rec := postJSON(t, h, "/v1/sweep", sweepBody)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: sweep: %d: %.200s", where, rec.Code, rec.Body.String())
		}
		var resp struct {
			Results []struct {
				Config   string          `json:"config"`
				Workload string          `json:"workload"`
				Cached   bool            `json:"cached"`
				Report   json.RawMessage `json:"report"`
			} `json:"results"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || len(resp.Results) != len(grid) {
			t.Fatalf("%s: sweep reply: %d cells (err %v), want %d", where, len(resp.Results), err, len(grid))
		}
		for i, res := range resp.Results {
			if res.Config != grid[i].label || res.Workload != grid[i].workload {
				t.Errorf("%s: cell %d is %q on %s, want %q on %s", where, i, res.Config, res.Workload, grid[i].label, grid[i].workload)
			}
			if wantCached != nil && res.Cached != *wantCached {
				t.Errorf("%s: cell %d cached=%v", where, i, res.Cached)
			}
			grid[i].check(t, where+" sweep", res.Report)
		}
		for _, c := range singles {
			rec := postJSON(t, h, "/v1/simulate", c.simulate())
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: simulate %s: %d: %.200s", where, c.label, rec.Code, rec.Body.String())
			}
			c.check(t, where+" simulate", rec.Body.Bytes())
		}
	}

	dir := t.TempDir()
	svc, h := newStoreHandler(t, dir, nil)
	// Within one sweep the alias, the anonymous twin and the escaped
	// name coalesce onto EOLE_4_64's simulation: misses for them too.
	serve("miss", h, nil)
	yes := true
	serve("hit", h, &yes)
	sims := svc.Stats().SimsRun
	if want := uint64(len(eole.ConfigNames())*len(wls) + 1); sims != want {
		t.Errorf("%d simulations for %d distinct cells", sims, want)
	}
	svc.Close() // the spills are on disk once the workers have exited

	svc2, h2 := newStoreHandler(t, dir, nil)
	serve("disk tier", h2, &yes)
	if st := svc2.Stats(); st.SimsRun != 0 || st.DiskHits == 0 {
		t.Errorf("reopened store: %d sims run, %d disk hits; want 0 and some", st.SimsRun, st.DiskHits)
	}
}

// TestClusterSplicedReportsAreByteIdentical is the wall's cluster path:
// the same grid through a coordinator's /v1/sweep. The alias, the
// anonymous twin and the escaped name dedupe onto EOLE_4_64's one
// dispatch and are relabeled by splicing the relayed bytes; the sweep
// again is answered from the coordinator's store, through the same
// splice; and what a run's bytes decode to under each label is the
// in-process report.
func TestClusterSplicedReportsAreByteIdentical(t *testing.T) {
	refs := wallConfigs(t)
	grid := wallGrid(t, refs)
	co, h := newCoordinatorServer(t, cluster.Options{Workers: []string{newWorker(t, workerOpts()).URL, newWorker(t, workerOpts()).URL}})
	body := wireRequest{Configs: refs, Workloads: wallWorkloads, Warmup: wallWarmup, Measure: wallMeasure}
	for _, pass := range []struct {
		where  string
		cached bool
	}{{"relayed", false}, {"held", true}} {
		rec := postJSON(t, h, "/v1/sweep", body)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: cluster sweep: %d: %.200s", pass.where, rec.Code, rec.Body.String())
		}
		var resp struct {
			Results []struct {
				Config   string          `json:"config"`
				Workload string          `json:"workload"`
				Cached   bool            `json:"cached"`
				Report   json.RawMessage `json:"report"`
			} `json:"results"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || len(resp.Results) != len(grid) {
			t.Fatalf("%s: reply: %d cells (err %v), want %d", pass.where, len(resp.Results), err, len(grid))
		}
		for i, res := range resp.Results {
			if res.Config != grid[i].label || res.Workload != grid[i].workload || res.Cached != pass.cached {
				t.Errorf("%s: cell %d is %q on %s (cached=%v), want %q on %s (cached=%v)",
					pass.where, i, res.Config, res.Workload, res.Cached, grid[i].label, grid[i].workload, pass.cached)
			}
			grid[i].check(t, pass.where+" cluster sweep", res.Report)
		}
	}
	var dispatched uint64
	for _, ws := range co.Workers() {
		dispatched += ws.Dispatched
	}
	if want := uint64(len(eole.ConfigNames()) * len(wallWorkloads)); dispatched != want {
		t.Errorf("%d dispatches for %d distinct cells in two sweeps", dispatched, want)
	}

	var reqs []simsvc.Request
	for _, ref := range refs {
		cfg, err := ref.resolve()
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, simsvc.Cross([]eole.Config{cfg}, wallWorkloads, wallWarmup, wallMeasure)...)
	}
	run, err := co.Start(t.Context(), reqs, simsvc.Keys(reqs))
	if err != nil {
		t.Fatal(err)
	}
	reports, err := runReports(t, run, reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, rep := range reports {
		if !reflect.DeepEqual(rep, grid[i].rep) {
			t.Errorf("%s on %s: the run's bytes decoded\n%+v\nin-process\n%+v", grid[i].label, grid[i].workload, rep, grid[i].rep)
		}
	}
}

// TestEntityTagsArePinned: a result's tag is derived from its key's
// digest, which is also its artifact file name, and a sweep's from its
// grid — neither may drift when the hashing code is reorganised. (A
// deliberate SchemaVersion or fingerprintVersion bump updates these.)
func TestEntityTagsArePinned(t *testing.T) {
	h := newTestHandler(t)
	rec := postJSON(t, h, "/v1/simulate", wireRequest{Config: namedRef("EOLE_4_64"), Workload: "gzip", Warmup: 1_000, Measure: 3_000})
	if got, want := rec.Header().Get("ETag"), `"r-63aa8482efe68fb4"`; rec.Code != http.StatusOK || got != want {
		t.Errorf("/v1/simulate: status %d, ETag %s, want %s", rec.Code, got, want)
	}
	rec = postJSON(t, h, "/v1/sweep", wireRequest{
		Configs:   []configRef{namedRef("Baseline_6_64"), namedRef("EOLE_4_64")},
		Workloads: []string{"gzip", "mcf"}, Warmup: 1_000, Measure: 3_000,
	})
	if got, want := rec.Header().Get("ETag"), `"s-69fe79259d85d1b0"`; rec.Code != http.StatusOK || got != want {
		t.Errorf("/v1/sweep: status %d, ETag %s, want %s", rec.Code, got, want)
	}
}

// TestReplyWriteFailureIsLogged: a reply that cannot be written is no
// longer dropped silently — the route wrapper logs it at debug with
// the request ID.
func TestReplyWriteFailureIsLogged(t *testing.T) {
	svc, err := simsvc.New(simsvc.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	var logs bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&logs, &slog.HandlerOptions{Level: slog.LevelDebug}))
	h := newServer(svc, serverOptions{logger: logger})
	req := httptest.NewRequest(http.MethodGet, "/v1/configs", nil)
	req.Header.Set("X-Eole-Request-Id", "rid-write-fail")
	h.ServeHTTP(brokenWriter{httptest.NewRecorder()}, req)
	if out := logs.String(); !strings.Contains(out, "reply_write_failed") || !strings.Contains(out, "rid-write-fail") {
		t.Errorf("no reply_write_failed record carrying the request ID in:\n%s", out)
	}
}

// brokenWriter is a client that has gone away: every body write fails.
type brokenWriter struct{ *httptest.ResponseRecorder }

func (brokenWriter) Write([]byte) (int, error) { return 0, http.ErrHandlerTimeout }
