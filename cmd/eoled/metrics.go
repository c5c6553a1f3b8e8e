package main

import (
	"eole/internal/artifact"
	"eole/internal/cluster"
	"eole/internal/obs"
	"eole/internal/simsvc"
)

// registerServiceMetrics mirrors the simsvc counter snapshot into
// Prometheus instruments. The service already keeps its own atomic
// counters (served as JSON on /v1/stats); rather than double-count at
// every call site, a gather callback copies the snapshot into the
// registry once per scrape.
func registerServiceMetrics(reg *obs.Registry, svc *simsvc.Service) {
	var (
		submitted = reg.Counter("eole_jobs_submitted_total", "Jobs submitted, including cache-answered ones.")
		completed = reg.Counter("eole_jobs_completed_total", "Jobs completed with a report.")
		failed    = reg.Counter("eole_jobs_failed_total", "Jobs that ended in a simulation error.")
		canceled  = reg.Counter("eole_jobs_canceled_total", "Jobs canceled by their submitter or shutdown.")
		simsRun   = reg.Counter("eole_sims_run_total", "Simulations actually executed (cache misses).")
		sampled   = reg.Counter("eole_sims_sampled_total", "Executed simulations that ran sampled.")
		abandoned = reg.Counter("eole_sims_abandoned_total", "Running simulations abandoned because every waiter left.")
		cacheHits = reg.Counter("eole_cache_hits_total", "Jobs answered from the result cache (memory or disk).")
		cacheMiss = reg.Counter("eole_cache_misses_total", "Jobs that required a fresh simulation.")
		diskHits  = reg.Counter("eole_cache_disk_hits_total", "Cache hits served from the disk spill.")
		coalesced = reg.Counter("eole_jobs_coalesced_total", "Jobs coalesced onto an identical in-flight simulation.")
		replays   = reg.Counter("eole_trace_replays_total", "Simulations served by replaying a recorded µ-op trace.")
		fallbacks = reg.Counter("eole_trace_fallbacks_total", "Simulations that fell back to execute-driven despite tracing.")
		simOps    = reg.Counter("eole_simulated_uops_total", "µ-ops advanced through by executed simulations.")
		simSecs   = reg.Counter("eole_sim_seconds_total", "Summed wall time of executed simulations in seconds.")
		cacheSize = reg.Gauge("eole_cache_entries", "Results currently held by the in-memory cache.")
		queueLen  = reg.Gauge("eole_queue_depth", "Unique simulations queued and not yet running.")
		inflight  = reg.Gauge("eole_inflight_sims", "Unique simulations registered (queued or running).")
	)
	reg.OnGather(func() {
		st := svc.Stats()
		submitted.Set(float64(st.JobsSubmitted))
		completed.Set(float64(st.JobsCompleted))
		failed.Set(float64(st.JobsFailed))
		canceled.Set(float64(st.JobsCanceled))
		simsRun.Set(float64(st.SimsRun))
		sampled.Set(float64(st.SimsSampled))
		abandoned.Set(float64(st.SimsAbandoned))
		cacheHits.Set(float64(st.CacheHits))
		cacheMiss.Set(float64(st.CacheMisses))
		diskHits.Set(float64(st.DiskHits))
		coalesced.Set(float64(st.Coalesced))
		replays.Set(float64(st.TraceReplays))
		fallbacks.Set(float64(st.TraceFallbacks))
		simOps.Set(float64(st.SimulatedOps))
		simSecs.Set(st.SimWallTime.Seconds())
		cacheSize.Set(float64(st.CacheSize))
		queueLen.Set(float64(svc.QueueLen()))
		inflight.Set(float64(svc.InFlight()))
	})
}

// registerSpanMetrics derives eole_queue_wait_seconds from the
// service's queue.wait spans, so the histogram costs nothing beyond the
// spans already being recorded. A wait runs from nothing (an idle
// worker) to minutes (behind long-* workloads), hence the wide
// log-spaced buckets. A nil tracer still registers the family —
// scrapers see a stable zero-count histogram rather than a metric that
// appears only when tracing is on.
func registerSpanMetrics(reg *obs.Registry, t *obs.Tracer) {
	queueWait := reg.Histogram("eole_queue_wait_seconds",
		"Time a simulation waited in the service queue before a worker picked it up, derived from queue.wait spans.",
		[]float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10, 60})
	t.OnSpanEnd(func(d obs.SpanData) {
		if d.Name == "queue.wait" {
			queueWait.Observe(d.Duration().Seconds())
		}
	})
}

// registerArtifactMetrics mirrors the artifact store's (tier × kind)
// accounting matrix into Prometheus instruments. Label cardinality is
// bounded: 3 tiers × 2 kinds.
func registerArtifactMetrics(reg *obs.Registry, store *artifact.Store) {
	var (
		hits    = reg.CounterVec("eole_artifact_hits_total", "Artifact lookups answered by the tier.", "tier", "kind")
		misses  = reg.CounterVec("eole_artifact_misses_total", "Artifact lookups the tier could not answer (peer tier includes fetch errors).", "tier", "kind")
		evicted = reg.CounterVec("eole_artifact_evictions_total", "Artifacts evicted from the tier by its byte budget.", "tier", "kind")
		bytes   = reg.GaugeVec("eole_artifact_bytes", "Bytes currently resident in the tier.", "tier", "kind")
		entries = reg.GaugeVec("eole_artifact_entries", "Artifacts currently resident in the tier.", "tier", "kind")
		quar    = reg.CounterVec("eole_artifact_quarantined_total", "Corrupt disk artifacts moved to quarantine.", "kind")
		pushes  = reg.CounterVec("eole_artifact_peer_pushes_total", "Artifacts pushed to the peer.", "kind")
		pushErr = reg.CounterVec("eole_artifact_peer_push_errors_total", "Failed artifact pushes to the peer.", "kind")
	)
	reg.OnGather(func() {
		for _, ts := range store.Stats() {
			hits.With(ts.Tier, ts.Kind).Set(float64(ts.Hits))
			misses.With(ts.Tier, ts.Kind).Set(float64(ts.Misses))
			evicted.With(ts.Tier, ts.Kind).Set(float64(ts.Evictions))
			bytes.With(ts.Tier, ts.Kind).Set(float64(ts.Bytes))
			entries.With(ts.Tier, ts.Kind).Set(float64(ts.Entries))
			switch ts.Tier {
			case "disk":
				quar.With(ts.Kind).Set(float64(ts.Quarantined))
			case "peer":
				pushes.With(ts.Kind).Set(float64(ts.Pushes))
				pushErr.With(ts.Kind).Set(float64(ts.PushErrors))
			}
		}
	})
}

// registerClusterMetrics exposes the coordinator's per-worker health
// and dispatch accounting, labeled by worker URL. The worker set is
// fixed at startup, so the label cardinality is bounded by -peers.
func registerClusterMetrics(reg *obs.Registry, coord *cluster.Coordinator) {
	var (
		up         = reg.GaugeVec("eole_cluster_worker_up", "1 when the worker's circuit is closed (dispatchable), 0 when open.", "worker")
		fails      = reg.GaugeVec("eole_cluster_worker_consecutive_failures", "Consecutive probe/dispatch failures counted toward the circuit.", "worker")
		inflight   = reg.GaugeVec("eole_cluster_worker_inflight", "Cells currently dispatched to the worker.", "worker")
		dispatched = reg.CounterVec("eole_cluster_dispatched_total", "Cells dispatched to the worker, including retries.", "worker")
		completed  = reg.CounterVec("eole_cluster_completed_total", "Cells the worker answered with a report.", "worker")
		failed     = reg.CounterVec("eole_cluster_failed_total", "Cells that failed permanently on the worker.", "worker")
		requeued   = reg.CounterVec("eole_cluster_requeued_total", "Retryable failures handed back to the queue.", "worker")
		throttled  = reg.CounterVec("eole_cluster_throttled_total", "429 backpressure answers from the worker.", "worker")
	)
	reg.OnGather(func() {
		for _, w := range coord.Workers() {
			upv := 1.0
			if w.State == "open" {
				upv = 0
			}
			up.With(w.URL).Set(upv)
			fails.With(w.URL).Set(float64(w.ConsecutiveFailures))
			inflight.With(w.URL).Set(float64(w.InFlight))
			dispatched.With(w.URL).Set(float64(w.Dispatched))
			completed.With(w.URL).Set(float64(w.Completed))
			failed.With(w.URL).Set(float64(w.Failed))
			requeued.With(w.URL).Set(float64(w.Requeued))
			throttled.With(w.URL).Set(float64(w.Throttled))
		}
	})
}
