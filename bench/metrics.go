package main

// metricDef is one line of the benchmark's contract. BENCHMARK.json
// at the repo root lists the same names, units and directions (a test
// keeps the two in step); Moves is the prediction the choosing-metrics
// guide asks for — which end-to-end metric the layer metric should
// move, on which workload — and lives here because BENCHMARK.json has
// no field for it.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: relative worsening that counts as a regression
	Moves  string  // per-layer only
}

// endToEnd is measured with tracing off, one value per run, the same
// six on every workload. A bound is at least three times the widest
// quartile spread the metric showed over ten seeds on any workload
// (README.md has the table), and setup_s carries the largest.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cells_per_s", Unit: "1/s", Better: "higher", Bound: 0.12},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.18},
	{Name: "latency_p90_ms", Unit: "ms", Better: "lower", Bound: 0.22},
	{Name: "cpu_ms_per_cell", Unit: "ms", Better: "lower", Bound: 0.15},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25},
}

const (
	movesCore     = "cells_per_s, cpu_ms_per_cell on cold_sweep and cluster_sweep"
	movesCoreMem  = movesCore + "; peak_rss_mb"
	movesNone     = "none: simulated result, must repeat exactly; a speed change that moves it changed the model"
	movesSampled  = "cells_per_s, cpu_ms_per_cell on sampled_long"
	movesTrace    = "setup_s on cold_sweep, hot_sweep, cluster_sweep; peak_rss_mb everywhere but sampled_long"
	movesMiss     = "cpu_ms_per_cell on cold_sweep"
	movesHit      = "cells_per_s, latency_p50_ms on hot_sweep"
	movesArtifact = "setup_s, latency_p90_ms on cluster_sweep; hot_sweep if hits move onto the artifact tier"
	movesJobs     = "cpu_ms_per_cell, cells_per_s on cluster_sweep; hot_sweep and cold_sweep once sync handlers wrap jobs"
	movesReport   = "cells_per_s, cpu_ms_per_cell on hot_sweep and cluster_sweep"
	movesEoled    = "latency_p50_ms, cells_per_s on hot_sweep; setup_s everywhere"
	movesCluster  = "latency_p50_ms, cpu_ms_per_cell on cluster_sweep only"
	movesObs      = "none: end-to-end runs with tracing off; bounds the cost of -trace-ring"
	movesLadder   = "cpu_ms_per_cell on cold_sweep (L0-L4) and cluster_sweep (L5)"
)

// perLayer comes from the traced passes and the in-process ladder,
// never from an end-to-end window. Counts and simulated results
// repeat exactly; times are host times.
var perLayer = []metricDef{
	{Name: "core.uops_per_s.gzip", Unit: "1/s", Better: "higher", Moves: movesCore},
	{Name: "core.uops_per_s.mcf", Unit: "1/s", Better: "higher", Moves: movesCore},
	{Name: "core.uops_per_s.namd", Unit: "1/s", Better: "higher", Moves: movesCore},
	{Name: "core.uops_per_s.hmmer", Unit: "1/s", Better: "higher", Moves: movesCore},
	{Name: "core.uops_per_s.novp", Unit: "1/s", Better: "higher", Moves: movesCore},
	{Name: "core.build_us", Unit: "us", Better: "lower", Moves: movesCoreMem},
	{Name: "core.alloc_bytes_per_cell", Unit: "B", Better: "lower", Moves: movesCoreMem},
	{Name: "core.allocs_per_kuop", Unit: "count", Better: "lower", Moves: movesCoreMem},
	{Name: "core.sim_cycles", Unit: "count", Better: "lower", Moves: movesNone},
	{Name: "core.sim_ipc_geomean", Unit: "ipc", Better: "higher", Moves: movesNone},

	{Name: "prog.interp_uops_per_s", Unit: "1/s", Better: "higher", Moves: movesSampled},
	{Name: "sample.warm_uops_per_s", Unit: "1/s", Better: "higher", Moves: movesSampled},
	{Name: "sample.uops_covered_per_s", Unit: "1/s", Better: "higher", Moves: movesSampled},
	{Name: "sample.ipc_rel_err", Unit: "ratio", Better: "lower", Moves: movesNone},
	{Name: "sample.ci_rel_halfwidth", Unit: "ratio", Better: "lower", Moves: movesNone},

	{Name: "trace.record_uops_per_s", Unit: "1/s", Better: "higher", Moves: movesTrace},
	{Name: "trace.bytes_per_uop", Unit: "B", Better: "lower", Moves: movesTrace},
	{Name: "trace.write_mb_per_s", Unit: "MB/s", Better: "higher", Moves: movesTrace},
	{Name: "trace.read_mb_per_s", Unit: "MB/s", Better: "higher", Moves: movesTrace},
	{Name: "trace.decoded_bytes_per_uop", Unit: "B", Better: "lower", Moves: movesTrace},
	{Name: "trace.replay_speedup", Unit: "ratio", Better: "higher", Moves: "cells_per_s on cold_sweep (L0 time / L1 time; below 1 replay loses)"},

	{Name: "simsvc.miss_added_us_per_cell", Unit: "us", Better: "lower", Moves: movesMiss},
	{Name: "simsvc.hit_us", Unit: "us", Better: "lower", Moves: movesHit},
	{Name: "simsvc.hit_artifact_mem_us", Unit: "us", Better: "lower", Moves: movesHit},
	{Name: "simsvc.sweep_hit_us_per_cell", Unit: "us", Better: "lower", Moves: movesHit},
	{Name: "simsvc.sims_run", Unit: "count", Better: "lower", Moves: movesMiss},
	{Name: "simsvc.cache_hits", Unit: "count", Better: "higher", Moves: movesHit},
	{Name: "simsvc.coalesced", Unit: "count", Better: "higher", Moves: movesMiss},

	{Name: "artifact.mem_get_us", Unit: "us", Better: "lower", Moves: movesArtifact},
	{Name: "artifact.disk_put_us", Unit: "us", Better: "lower", Moves: movesArtifact},
	{Name: "artifact.disk_get_us", Unit: "us", Better: "lower", Moves: movesArtifact},
	{Name: "artifact.peer_get_us", Unit: "us", Better: "lower", Moves: movesArtifact},
	{Name: "artifact.disk_get_mb_per_s.trace", Unit: "MB/s", Better: "higher", Moves: movesArtifact},
	{Name: "artifact.peer_get_mb_per_s.trace", Unit: "MB/s", Better: "higher", Moves: movesArtifact},

	{Name: "jobs.added_us_per_cell", Unit: "us", Better: "lower", Moves: movesJobs},
	{Name: "jobs.hit_added_us_per_op", Unit: "us", Better: "lower", Moves: movesJobs},
	{Name: "jobs.events_per_s", Unit: "1/s", Better: "higher", Moves: movesJobs},

	{Name: "eole.report_encode_us", Unit: "us", Better: "lower", Moves: movesReport},
	{Name: "eole.report_decode_us", Unit: "us", Better: "lower", Moves: movesReport},
	{Name: "eole.report_bytes", Unit: "B", Better: "lower", Moves: movesReport},

	{Name: "eoled.start_ms", Unit: "ms", Better: "lower", Moves: movesEoled},
	{Name: "eoled.http_added_us_per_op.hit", Unit: "us", Better: "lower", Moves: movesEoled},
	{Name: "eoled.simulate_hit_us", Unit: "us", Better: "lower", Moves: movesEoled},
	{Name: "eoled.etag_304_us", Unit: "us", Better: "lower", Moves: movesEoled},
	{Name: "eoled.resp_bytes_per_cell", Unit: "B", Better: "lower", Moves: movesEoled},

	{Name: "cluster.added_ms_per_cell", Unit: "ms", Better: "lower", Moves: movesCluster},
	{Name: "cluster.dispatch_self_ms", Unit: "ms", Better: "lower", Moves: movesCluster},
	{Name: "cluster.coord_cpu_ms_per_cell", Unit: "ms", Better: "lower", Moves: movesCluster},
	{Name: "cluster.cells_dispatched", Unit: "count", Better: "lower", Moves: movesCluster},
	{Name: "cluster.requeued", Unit: "count", Better: "lower", Moves: movesCluster},
	{Name: "cluster.throttled", Unit: "count", Better: "lower", Moves: movesCluster},

	{Name: "obs.trace_overhead_ratio.cold_sweep", Unit: "ratio", Better: "higher", Moves: movesObs},
	{Name: "obs.trace_overhead_ratio.hot_sweep", Unit: "ratio", Better: "higher", Moves: movesObs},
	{Name: "obs.spans_per_cell", Unit: "count", Better: "lower", Moves: movesObs},
	{Name: "obs.metrics_scrape_ms", Unit: "ms", Better: "lower", Moves: movesObs},

	// Ladder rungs, host CPU per cell on the 16 cold_sweep cells.
	{Name: "ladder.L0_execute_ms_per_cell", Unit: "ms", Better: "lower", Moves: movesLadder},
	{Name: "ladder.L1_replay_ms_per_cell", Unit: "ms", Better: "lower", Moves: movesLadder},
	{Name: "ladder.L2_simsvc_ms_per_cell", Unit: "ms", Better: "lower", Moves: movesLadder},
	{Name: "ladder.L3_jobs_ms_per_cell", Unit: "ms", Better: "lower", Moves: movesLadder},
	{Name: "ladder.L4_http_ms_per_cell", Unit: "ms", Better: "lower", Moves: movesLadder},
	{Name: "ladder.L5_cluster_ms_per_cell", Unit: "ms", Better: "lower", Moves: movesLadder},

	// Span self time, each read from the traced pass of the one
	// workload where the span dominates.
	{Name: "span.http.request.self_ms_per_cell", Unit: "ms", Better: "lower", Moves: "hot_sweep traced pass; " + movesHit},
	{Name: "span.cache.probe.self_ms_per_cell", Unit: "ms", Better: "lower", Moves: "cold_sweep traced pass; " + movesMiss},
	{Name: "span.queue.wait.self_ms_per_cell", Unit: "ms", Better: "lower", Moves: "cold_sweep traced pass; latency_p50_ms on cold_sweep"},
	{Name: "span.trace.resolve.self_ms_per_cell", Unit: "ms", Better: "lower", Moves: "cold_sweep traced pass; " + movesMiss},
	{Name: "span.sim.warm.self_ms_per_cell", Unit: "ms", Better: "lower", Moves: "cold_sweep traced pass; " + movesCore},
	{Name: "span.sim.detailed.self_ms_per_cell", Unit: "ms", Better: "lower", Moves: "cold_sweep traced pass; " + movesCore},
	{Name: "span.sim.sampled.self_ms_per_cell", Unit: "ms", Better: "lower", Moves: "sampled_long traced pass; " + movesSampled},
	{Name: "span.job.run.self_ms_per_cell", Unit: "ms", Better: "lower", Moves: "cluster_sweep traced pass; " + movesJobs},
	{Name: "span.job.cell.self_ms_per_cell", Unit: "ms", Better: "lower", Moves: "cluster_sweep traced pass; " + movesJobs},
	{Name: "span.dispatch.self_ms_per_cell", Unit: "ms", Better: "lower", Moves: "cluster_sweep traced pass; " + movesCluster},
	{Name: "span.artifact.fetch.self_ms_per_cell", Unit: "ms", Better: "lower", Moves: "cluster_sweep traced pass; " + movesArtifact},
}

// measurement is one metric as measured. A layer metric whose source
// has gone (a span eoled no longer emits, say) carries Null with the
// reason: it prints as null and is written as 0 in the result line,
// which only takes numbers.
type measurement struct {
	Value float64
	Null  string
}

type measurements map[string]measurement

func (m measurements) set(name string, v float64) { m[name] = measurement{Value: v} }

func (m measurements) null(name, reason string) { m[name] = measurement{Null: reason} }
