package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"eole/internal/simsvc"
)

// traceRing is the -trace-ring of a traced pass: room for every op of
// the longest fixed op list.
const traceRing = 8192

// pass is one fixed op list sent by one client to a fresh fleet.
type pass struct {
	w       workload
	cells   int
	opMS    []float64 // per-op latency
	cpuMS   float64   // fleet CPU over the op list
	coordMS float64   // first process only (the coordinator of a cluster)
	startMS float64
	spans   []span // harness and server spans; traced passes only
	stats   simsvc.Stats
	respLen int
	cluster clusterCounters
	failed  []string
}

type clusterCounters struct{ Dispatched, Requeued, Throttled uint64 }

// cellsPerS is the one-client rate over the op list.
func (p *pass) cellsPerS() float64 {
	var total float64
	for _, v := range p.opMS {
		total += v
	}
	return float64(p.cells) / (total / 1000)
}

func (p *pass) opMedianMS() float64 { return median(p.opMS) }

// statsOf sums the simsvc counters of every process of the fleet: on a
// cluster the workers simulate, not the coordinator.
func statsOf(ctx context.Context, f *fleet) (simsvc.Stats, error) {
	var sum simsvc.Stats
	for _, p := range f.procs {
		var st simsvc.Stats
		if err := getJSON(ctx, p.url()+"/v1/stats", &st); err != nil {
			return sum, err
		}
		sum.SimsRun += st.SimsRun
		sum.CacheHits += st.CacheHits
		sum.Coalesced += st.Coalesced
	}
	return sum, nil
}

func clusterCountersOf(ctx context.Context, f *fleet) (clusterCounters, error) {
	var st struct {
		Workers []struct {
			Dispatched uint64 `json:"dispatched"`
			Requeued   uint64 `json:"requeued"`
			Throttled  uint64 `json:"throttled"`
		} `json:"workers"`
	}
	var c clusterCounters
	if err := getJSON(ctx, f.base()+"/v1/cluster/workers", &st); err != nil {
		return c, err
	}
	for _, w := range st.Workers {
		c.Dispatched += w.Dispatched
		c.Requeued += w.Requeued
		c.Throttled += w.Throttled
	}
	return c, nil
}

// runPass sets the fleet up exactly as an end-to-end run does, then
// sends ops PrimeOps.. of the seeded list, n of them, one after
// another. With traced set the servers run with tracing on, every op
// is the child of a harness span client.op whose traceparent it
// carries, and the servers' spans are pulled afterwards. Counters are
// deltas over the op list, so they repeat exactly. extra, when
// non-nil, runs against the live fleet before it is stopped.
func (e *env) runPass(ctx context.Context, w workload, seed int64, n int, traced bool, extra func(*fleet, *pass) error) (*pass, error) {
	ops := newOpList(w, seed)
	ring := 0
	if traced {
		ring = traceRing
	}
	f, _, _, err := e.setup(ctx, w, ops, ring)
	if err != nil {
		return nil, fmt.Errorf("%s pass: set-up: %w", w.Name, err)
	}
	defer f.stop()
	p := &pass{w: w, cells: n * w.Cells, startMS: f.startMS}
	hc := &http.Client{}
	defer hc.CloseIdleConnections()

	stats0, err := statsOf(ctx, f)
	if err != nil {
		return nil, err
	}
	var cc0 clusterCounters
	if w.Cluster {
		if cc0, err = clusterCountersOf(ctx, f); err != nil {
			return nil, err
		}
	}
	cpu0, err := f.cpuMS()
	if err != nil {
		return nil, err
	}
	coord := &fleet{procs: f.procs[:1]}
	coord0, err := coord.cpuMS()
	if err != nil {
		return nil, err
	}
	var roots []*span
	meter := startSpeedMeter()
	for i := 0; i < n; i++ {
		var hdr http.Header
		end := func() {}
		if traced {
			var root *span
			root, end = startSpan("client.op")
			root.Attrs = map[string]string{"workload": w.Name}
			roots = append(roots, root)
			hdr = http.Header{"Traceparent": {root.traceparent()}}
		}
		r := send(ctx, hc, f.base()+w.Endpoint, ops.at(w.PrimeOps+i), w.Cells, hdr, nil)
		end()
		if traced {
			p.spans = append(p.spans, *roots[len(roots)-1])
		}
		if r.err != nil {
			p.failed = append(p.failed, fmt.Sprintf("%s pass op %d: %v", w.Name, i, r.err))
			continue
		}
		p.opMS = append(p.opMS, ms(r.latency))
		p.respLen = len(r.body)
	}
	speed := meter.read()
	cpu1, err := f.cpuMS()
	if err != nil {
		return nil, err
	}
	coord1, err := coord.cpuMS()
	if err != nil {
		return nil, err
	}
	// Scaled by the machine's speed like the end-to-end times, so that
	// a traced and an untraced pass minutes apart can be compared.
	p.cpuMS, p.coordMS = (cpu1-cpu0)*speed, (coord1-coord0)*speed
	for i := range p.opMS {
		p.opMS[i] *= speed
	}
	stats1, err := statsOf(ctx, f)
	if err != nil {
		return nil, err
	}
	p.stats = simsvc.Stats{
		SimsRun:   stats1.SimsRun - stats0.SimsRun,
		CacheHits: stats1.CacheHits - stats0.CacheHits,
		Coalesced: stats1.Coalesced - stats0.Coalesced,
	}
	if w.Cluster {
		cc1, err := clusterCountersOf(ctx, f)
		if err != nil {
			return nil, err
		}
		p.cluster = clusterCounters{cc1.Dispatched - cc0.Dispatched, cc1.Requeued - cc0.Requeued, cc1.Throttled - cc0.Throttled}
	}
	for _, root := range roots {
		var tr struct {
			Spans []span `json:"spans"`
		}
		if err := getJSON(ctx, f.base()+"/v1/debug/traces/"+root.TraceID, &tr); err != nil {
			return nil, fmt.Errorf("%s pass: spans of op: %w", w.Name, err)
		}
		p.spans = append(p.spans, tr.Spans...)
	}
	if extra != nil {
		if err := extra(f, p); err != nil {
			return nil, err
		}
	}
	if len(p.opMS) == 0 {
		return nil, fmt.Errorf("%s pass: every op failed: %v", w.Name, p.failed)
	}
	return p, nil
}

// hitProbes are the single-request timings taken on the hot fleet:
// a one-cell cached /v1/simulate, its If-None-Match revalidation, and
// a /metrics scrape.
type hitProbes struct{ simulateUS, etagUS, scrapeMS float64 }

const probeReps = 200

func probeHot(ctx context.Context, f *fleet, ops *opList) (hitProbes, error) {
	var out hitProbes
	cell := ops.at(0).Reqs[0]
	body := mustJSON(simulateBody{cell.Config.Label(), cell.Workload, cell.Warmup, cell.Measure, nil})
	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	do := func(method, url string, body []byte, etag string) (time.Duration, *http.Response, error) {
		req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
		if err != nil {
			return 0, nil, err
		}
		if etag != "" {
			req.Header.Set("If-None-Match", etag)
		}
		t0 := time.Now()
		resp, err := hc.Do(req)
		if err != nil {
			return 0, nil, err
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return time.Since(t0), resp, err
	}
	var sim, etag, scrape []float64
	var tag string
	for i := 0; i < probeReps; i++ {
		d, resp, err := do(http.MethodPost, f.base()+"/v1/simulate", body, "")
		if err != nil || resp.StatusCode != http.StatusOK {
			return out, fmt.Errorf("hot /v1/simulate probe: status %v, err %v", statusOf(resp), err)
		}
		sim = append(sim, float64(d)/1e3)
		tag = resp.Header.Get("ETag")
	}
	for i := 0; i < probeReps; i++ {
		d, resp, err := do(http.MethodPost, f.base()+"/v1/simulate", body, tag)
		if err != nil || resp.StatusCode != http.StatusNotModified {
			return out, fmt.Errorf("hot If-None-Match probe: status %v, err %v", statusOf(resp), err)
		}
		etag = append(etag, float64(d)/1e3)
	}
	for i := 0; i < 20; i++ {
		d, resp, err := do(http.MethodGet, f.base()+"/metrics", nil, "")
		if err != nil || resp.StatusCode != http.StatusOK {
			return out, fmt.Errorf("/metrics scrape: status %v, err %v", statusOf(resp), err)
		}
		scrape = append(scrape, ms(d))
	}
	return hitProbes{median(sim), median(etag), median(scrape)}, nil
}

func statusOf(r *http.Response) int {
	if r == nil {
		return 0
	}
	return r.StatusCode
}
