package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"eole"
	"eole/internal/simsvc"
)

// countWriter is the cheapest possible client: it keeps the status and
// counts the body, so what a test measures is the server's own work.
type countWriter struct {
	header http.Header
	status int
	n      int
}

func (w *countWriter) Header() http.Header         { return w.header }
func (w *countWriter) WriteHeader(status int)      { w.status = status }
func (w *countWriter) Write(b []byte) (int, error) { w.n += len(b); return len(b), nil }

// hitSweep is the re-asked figure sweep: every named config on every
// benchmark, 11 × 19 = 209 cells, simulated once and from then on
// answered from cache. It returns a function that replays the request
// and reports the reply's size.
func hitSweep(tb testing.TB) (post func() int) {
	tb.Helper()
	_, post = hitServer(tb)
	return post
}

// hitServer is hitSweep that also returns the handler it posts to.
func hitServer(tb testing.TB) (h http.Handler, post func() int) {
	tb.Helper()
	svc := newTestService(tb, simsvc.Options{})
	h = newServer(svc, serverOptions{defaultWarmup: 200, defaultMeasure: 1_000, maxUops: 1_000_000, maxQueue: 1024})
	rec := postJSON(tb, h, "/v1/sweep", wireRequest{}) // simulate every cell
	if rec.Code != http.StatusOK {
		tb.Fatalf("status %d: %.200s", rec.Code, rec.Body.String())
	}
	rec = postJSON(tb, h, "/v1/sweep", wireRequest{})
	if n := bytes.Count(rec.Body.Bytes(), []byte(`"cached":true`)); n != hitCells {
		tb.Fatalf("%d of %d cells answered from cache", n, hitCells)
	}
	return h, func() int {
		req := httptest.NewRequest(http.MethodPost, "/v1/sweep", strings.NewReader(`{}`))
		w := &countWriter{header: make(http.Header), status: http.StatusOK}
		h.ServeHTTP(w, req)
		if w.status != http.StatusOK || w.n != rec.Body.Len() {
			tb.Fatalf("status %d with %d body bytes, want 200 with %d", w.status, w.n, rec.Body.Len())
		}
		return w.n
	}
}

// hitCells is the size of the full named grid hitSweep asks for.
var hitCells = len(eole.ConfigNames()) * len(eole.WorkloadNames())

// TestSweepHitAllocations guards the cached path's shape: a hit is a
// key built, a map probe and a copy of stored bytes per cell. A job per
// cached cell, an encoding/json pass over the reports, or a formatted
// key per cell breaks the budget several times over (a job per cell
// took 3 allocations per cell, the encode-per-reply route 31 and ten
// times the body in bytes).
func TestSweepHitAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	post := hitSweep(t)
	bodyLen := post()
	allocs := testing.AllocsPerRun(20, func() { post() })
	if perCell := allocs / float64(hitCells); perCell > 1 {
		t.Errorf("%.2f allocations per cached cell, want <= 1", perCell)
	}
	var before, after runtime.MemStats
	const ops = 20
	runtime.ReadMemStats(&before)
	for i := 0; i < ops; i++ {
		post()
	}
	runtime.ReadMemStats(&after)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / ops; perOp > uint64(2*bodyLen) {
		t.Errorf("%d bytes allocated per op for a %d-byte body, want <= 2x", perOp, bodyLen)
	}
}

// TestSweepHitDigestsNothing pins the hashing a cached sweep pays: one
// config fingerprint per config and no key digest at all, however many
// steps (entity tag, admission, probe) use the keys — a cell's digest
// is its artifact name, and a hit never leaves the process.
func TestSweepHitDigestsNothing(t *testing.T) {
	post := hitSweep(t)
	k0, f0 := simsvc.HashCounts()
	post()
	k1, f1 := simsvc.HashCounts()
	cfgs, wls := len(eole.ConfigNames()), len(eole.WorkloadNames())
	if got := int(k1 - k0); got != 0 {
		t.Errorf("%d key digests for %d cached cells, want 0", got, cfgs*wls)
	}
	if got := int(f1 - f0); got != cfgs {
		t.Errorf("%d config fingerprints for %d configs", got, cfgs)
	}
}

// TestSweepHitCounters: a cached sweep answered by the batch probe
// books every cell as a submission would — submitted, a cache hit and
// completed — and nothing else.
func TestSweepHitCounters(t *testing.T) {
	h, post := hitServer(t)
	var before, after simsvc.Stats
	getJSON(t, h, "/v1/stats", &before)
	const sweeps = 3
	for i := 0; i < sweeps; i++ {
		post()
	}
	getJSON(t, h, "/v1/stats", &after)
	for _, c := range []struct {
		name          string
		before, after uint64
		want          int
	}{
		{"jobs_submitted", before.JobsSubmitted, after.JobsSubmitted, sweeps * hitCells},
		{"cache_hits", before.CacheHits, after.CacheHits, sweeps * hitCells},
		{"jobs_completed", before.JobsCompleted, after.JobsCompleted, sweeps * hitCells},
		{"cache_misses", before.CacheMisses, after.CacheMisses, 0},
		{"disk_hits", before.DiskHits, after.DiskHits, 0},
		{"coalesced", before.Coalesced, after.Coalesced, 0},
		{"sims_run", before.SimsRun, after.SimsRun, 0},
	} {
		if got := int(c.after - c.before); got != c.want {
			t.Errorf("%s rose by %d over %d cached sweeps, want %d", c.name, got, sweeps, c.want)
		}
	}
}

// TestSweepMixedHitsMatchPerCellPath: a sweep that is part hit, part
// miss replies byte for byte what submitting each cell on its own and
// stitching the jobs gives — hits come from the probe, misses from
// jobs — and a closed service answers 503 on both report endpoints.
func TestSweepMixedHitsMatchPerCellPath(t *testing.T) {
	opts := serverOptions{defaultWarmup: 1_000, defaultMeasure: 3_000, maxUops: 1_000_000}
	svc := newTestService(t, simsvc.Options{Parallelism: 2})
	h := newServer(svc, opts)
	twin := newTestService(t, simsvc.Options{Parallelism: 2})
	anon := eole.EOLEConfig(6, 48)
	anon.Name = ""
	sweep := wireRequest{
		Configs:   []configRef{namedRef("EOLE_4_64"), namedRef("Baseline_6_64"), inlineRef(anon)},
		Workloads: []string{"gzip", "mcf"},
	}
	cells, err := (&server{opts: opts}).resolve(sweep, formSweep)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	warm := []int{0, 3, 4} // EOLE_4_64 on gzip, Baseline_6_64 on mcf, the anonymous config on gzip
	for _, i := range warm {
		c := cells[i]
		if rec := postJSON(t, h, "/v1/simulate", wireRequest{Config: inlineRef(c.Config), Workload: c.Workload}); rec.Code != http.StatusOK {
			t.Fatalf("warming cell %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
		j, err := twin.Submit(ctx, c)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(ctx); err != nil {
			t.Fatal(err)
		}
	}

	rec := postJSON(t, h, "/v1/sweep", sweep)
	if rec.Code != http.StatusOK {
		t.Fatalf("sweep: status %d: %s", rec.Code, rec.Body.String())
	}
	want := []byte(`{"results":[`)
	for i, c := range cells {
		j, err := twin.Submit(ctx, c)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(ctx); err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			want = append(want, ',')
		}
		want = appendSweepCell(want, c.Config.Label(), c.Workload, j.Cached(), j.Encoded(), "")
	}
	want = append(want, "]}\n"...)
	if !bytes.Equal(rec.Body.Bytes(), want) {
		t.Errorf("mixed sweep reply differs from the per-cell path:\n got %s\nwant %s", rec.Body.Bytes(), want)
	}
	if n := bytes.Count(want, []byte(`"cached":true`)); n != len(warm) {
		t.Errorf("per-cell path has %d cached cells, want %d", n, len(warm))
	}

	svc.Close()
	if rec := postJSON(t, h, "/v1/sweep", sweep); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("sweep on a closed service: status %d, want 503", rec.Code)
	}
	if rec := postJSON(t, h, "/v1/simulate", wireRequest{Config: namedRef("EOLE_4_64"), Workload: "gzip"}); rec.Code != http.StatusServiceUnavailable {
		t.Errorf("simulate on a closed service: status %d, want 503", rec.Code)
	}
}

// BenchmarkSweepHit is the in-repo view of the benchmark's hot_sweep
// op, handler only (no sockets): µs per cached cell and bytes
// allocated per 209-cell reply.
func BenchmarkSweepHit(b *testing.B) {
	post := hitSweep(b)
	b.SetBytes(int64(post()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post()
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*hitCells), "µs/cell")
}
