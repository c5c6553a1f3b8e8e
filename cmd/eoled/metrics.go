package main

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"eole/internal/obs"
)

// routeStats is one route path's request accounting, the one record
// both /v1/stats ("endpoints") and /metrics read. Methods sharing a
// path (GET/PUT artifacts) share one record.
type routeStats struct {
	// requests counts arrivals, before the handler runs, so a
	// /v1/stats reply counts itself.
	requests atomic.Uint64
	// notModified counts conditional requests answered 304 from the
	// entity tag alone.
	notModified atomic.Uint64
	// latency observes each completed request's handling time in
	// seconds.
	latency *obs.Histogram

	mu    sync.Mutex
	codes map[int]uint64 // completed requests by status code
}

func newRouteStats() *routeStats {
	return &routeStats{latency: obs.NewHistogram(obs.DefBuckets), codes: make(map[int]uint64)}
}

// done records one completed request.
func (rs *routeStats) done(status int, d time.Duration) {
	rs.mu.Lock()
	rs.codes[status]++
	rs.mu.Unlock()
	rs.latency.Observe(d.Seconds())
}

// answered snapshots the completed requests by status code, and how
// many of them were errors (status >= 400).
func (rs *routeStats) answered() (codes map[int]uint64, errors uint64) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	codes = make(map[int]uint64, len(rs.codes))
	for code, n := range rs.codes {
		codes[code] = n
		if code >= 400 {
			errors += n
		}
	}
	return codes, errors
}

// queueWaitBuckets lays out eole_queue_wait_seconds: a wait runs from
// nothing (an idle worker) to minutes (behind long-* workloads), hence
// the wide log-spaced buckets.
var queueWaitBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10, 60}

// writeMetrics fills one /metrics scrape straight from the state eoled
// already keeps — the service's counter snapshot, its queue, the
// artifact store's accounting matrix, the coordinator's worker table,
// the route records and the runtime — so each value is kept once and
// read here once per scrape. Label cardinality is bounded: route
// patterns (never raw paths), 3 tiers × 2 kinds, and the -peers set.
func (s *server) writeMetrics(e *obs.Exposition) {
	obs.AddRuntimeMetrics(e)

	st := s.svc.Stats()
	e.Counter("eole_jobs_submitted_total", "Jobs submitted, including cache-answered ones.", float64(st.JobsSubmitted))
	e.Counter("eole_jobs_completed_total", "Jobs completed with a report.", float64(st.JobsCompleted))
	e.Counter("eole_jobs_failed_total", "Jobs that ended in a simulation error.", float64(st.JobsFailed))
	e.Counter("eole_jobs_canceled_total", "Jobs canceled by their submitter or shutdown.", float64(st.JobsCanceled))
	e.Counter("eole_sims_run_total", "Simulations actually executed (cache misses).", float64(st.SimsRun))
	e.Counter("eole_sims_sampled_total", "Executed simulations that ran sampled.", float64(st.SimsSampled))
	e.Counter("eole_sims_abandoned_total", "Running simulations abandoned because every waiter left.", float64(st.SimsAbandoned))
	e.Counter("eole_cache_hits_total", "Jobs answered from the result cache (memory or disk).", float64(st.CacheHits))
	e.Counter("eole_cache_misses_total", "Jobs that required a fresh simulation.", float64(st.CacheMisses))
	e.Counter("eole_cache_disk_hits_total", "Cache hits served from the disk spill.", float64(st.DiskHits))
	e.Counter("eole_jobs_coalesced_total", "Jobs coalesced onto an identical in-flight simulation.", float64(st.Coalesced))
	e.Counter("eole_trace_replays_total", "Simulations served by replaying a recorded µ-op trace.", float64(st.TraceReplays))
	e.Counter("eole_trace_fallbacks_total", "Simulations that fell back to execute-driven despite tracing.", float64(st.TraceFallbacks))
	e.Counter("eole_simulated_uops_total", "µ-ops advanced through by executed simulations.", float64(st.SimulatedOps))
	e.Counter("eole_sim_seconds_total", "Summed wall time of executed simulations in seconds.", st.SimWallTime.Seconds())
	e.Gauge("eole_cache_entries", "Results currently held by the in-memory cache.", float64(st.CacheSize))
	e.Gauge("eole_queue_depth", "Unique simulations queued and not yet running.", float64(s.svc.QueueLen()))
	e.Gauge("eole_inflight_sims", "Unique simulations registered (queued or running).", float64(s.svc.InFlight()))
	// A nil tracer leaves the histogram at zero counts: scrapers see a
	// stable family rather than one that appears only with tracing on.
	e.Family("eole_queue_wait_seconds",
		"Time a simulation waited in the service queue before a worker picked it up, derived from queue.wait spans.",
		"histogram").AddHistogram(s.queueWait)

	requests := e.Family("eole_http_requests_total", "HTTP requests served, by route pattern and status code.", "counter")
	errs := e.Family("eole_http_request_errors_total", "HTTP requests answered with a 4xx or 5xx status, by route pattern.", "counter")
	notModified := e.Family("eole_http_not_modified_total", "Conditional requests answered 304 Not Modified from the entity tag alone.", "counter")
	latency := e.Family("eole_http_request_duration_seconds", "HTTP request latency in seconds, by route pattern.", "histogram")
	// A route's series appear once it has answered a request.
	for path, rs := range s.routes {
		codes, nerr := rs.answered()
		for code, n := range codes {
			requests.Add(float64(n), "path", path, "code", strconv.Itoa(code))
		}
		if nerr > 0 {
			errs.Add(float64(nerr), "path", path)
		}
		if n := rs.notModified.Load(); n > 0 {
			notModified.Add(float64(n), "path", path)
		}
		if len(codes) > 0 {
			latency.AddHistogram(rs.latency, "path", path)
		}
	}

	hits := e.Family("eole_artifact_hits_total", "Artifact lookups answered by the tier.", "counter")
	misses := e.Family("eole_artifact_misses_total", "Artifact lookups the tier could not answer (peer tier includes fetch errors).", "counter")
	evicted := e.Family("eole_artifact_evictions_total", "Artifacts evicted from the tier by its byte budget.", "counter")
	bytes := e.Family("eole_artifact_bytes", "Bytes currently resident in the tier.", "gauge")
	entries := e.Family("eole_artifact_entries", "Artifacts currently resident in the tier.", "gauge")
	quarantined := e.Family("eole_artifact_quarantined_total", "Corrupt disk artifacts moved to quarantine.", "counter")
	pushes := e.Family("eole_artifact_peer_pushes_total", "Artifacts pushed to the peer.", "counter")
	pushErrs := e.Family("eole_artifact_peer_push_errors_total", "Failed artifact pushes to the peer.", "counter")
	for _, ts := range s.svc.Artifacts().Stats() {
		hits.Add(float64(ts.Hits), "tier", ts.Tier, "kind", ts.Kind)
		misses.Add(float64(ts.Misses), "tier", ts.Tier, "kind", ts.Kind)
		evicted.Add(float64(ts.Evictions), "tier", ts.Tier, "kind", ts.Kind)
		bytes.Add(float64(ts.Bytes), "tier", ts.Tier, "kind", ts.Kind)
		entries.Add(float64(ts.Entries), "tier", ts.Tier, "kind", ts.Kind)
		switch ts.Tier {
		case "disk":
			quarantined.Add(float64(ts.Quarantined), "kind", ts.Kind)
		case "peer":
			pushes.Add(float64(ts.Pushes), "kind", ts.Kind)
			pushErrs.Add(float64(ts.PushErrors), "kind", ts.Kind)
		}
	}

	if s.opts.coord == nil {
		return
	}
	up := e.Family("eole_cluster_worker_up", "1 when the worker's circuit is closed (dispatchable), 0 when open.", "gauge")
	fails := e.Family("eole_cluster_worker_consecutive_failures", "Consecutive probe/dispatch failures counted toward the circuit.", "gauge")
	inflight := e.Family("eole_cluster_worker_inflight", "Cells currently dispatched to the worker.", "gauge")
	dispatched := e.Family("eole_cluster_dispatched_total", "Cells dispatched to the worker, including retries.", "counter")
	completed := e.Family("eole_cluster_completed_total", "Cells the worker answered with a report.", "counter")
	failed := e.Family("eole_cluster_failed_total", "Cells that failed permanently on the worker.", "counter")
	requeued := e.Family("eole_cluster_requeued_total", "Retryable failures handed back to the queue.", "counter")
	throttled := e.Family("eole_cluster_throttled_total", "429 backpressure answers from the worker.", "counter")
	for _, w := range s.opts.coord.Workers() {
		upv := 1.0
		if w.State == "open" {
			upv = 0
		}
		up.Add(upv, "worker", w.URL)
		fails.Add(float64(w.ConsecutiveFailures), "worker", w.URL)
		inflight.Add(float64(w.InFlight), "worker", w.URL)
		dispatched.Add(float64(w.Dispatched), "worker", w.URL)
		completed.Add(float64(w.Completed), "worker", w.URL)
		failed.Add(float64(w.Failed), "worker", w.URL)
		requeued.Add(float64(w.Requeued), "worker", w.URL)
		throttled.Add(float64(w.Throttled), "worker", w.URL)
	}
}
