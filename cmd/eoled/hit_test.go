package main

import (
	"bytes"
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
	svc, err := simsvc.New(simsvc.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(svc.Close)
	h := newServer(svc, serverOptions{defaultWarmup: 200, defaultMeasure: 1_000, maxUops: 1_000_000, maxQueue: 1024})
	rec := postJSON(tb, h, "/v1/sweep", wireRequest{}) // simulate every cell
	if rec.Code != http.StatusOK {
		tb.Fatalf("status %d: %.200s", rec.Code, rec.Body.String())
	}
	rec = postJSON(tb, h, "/v1/sweep", wireRequest{})
	if n := bytes.Count(rec.Body.Bytes(), []byte(`"cached":true`)); n != hitCells {
		tb.Fatalf("%d of %d cells answered from cache", n, hitCells)
	}
	return func() int {
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
// key hash, a map lookup and a copy of stored bytes per cell. An
// encoding/json pass over the reports, or a second hash per cell,
// breaks the budget several times over (the encode-per-reply route
// took 31 allocations per cell and ten times the body in bytes).
func TestSweepHitAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	post := hitSweep(t)
	bodyLen := post()
	allocs := testing.AllocsPerRun(20, func() { post() })
	if perCell := allocs / float64(hitCells); perCell > 8 {
		t.Errorf("%.1f allocations per cached cell, want <= 8", perCell)
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

// TestSweepHitHashesOncePerCell pins the hashing a keyed sweep pays:
// one request key per cell and one config fingerprint per config, no
// matter how many steps (entity tag, admission, submission) use them.
func TestSweepHitHashesOncePerCell(t *testing.T) {
	post := hitSweep(t)
	k0, f0 := simsvc.HashCounts()
	post()
	k1, f1 := simsvc.HashCounts()
	cfgs, wls := len(eole.ConfigNames()), len(eole.WorkloadNames())
	if got := int(k1 - k0); got != cfgs*wls {
		t.Errorf("%d request keys hashed for %d cells", got, cfgs*wls)
	}
	if got := int(f1 - f0); got != cfgs {
		t.Errorf("%d config fingerprints for %d configs", got, cfgs)
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
