package simsvc

import (
	"sync/atomic"
	"time"
)

// metrics is the service's internal atomic counter set.
type metrics struct {
	submitted     atomic.Uint64
	completed     atomic.Uint64
	failed        atomic.Uint64
	canceled      atomic.Uint64
	simsRun       atomic.Uint64
	sampledRuns   atomic.Uint64
	abandonedRuns atomic.Uint64
	cacheHits     atomic.Uint64
	diskHits      atomic.Uint64
	cacheMisses   atomic.Uint64
	coalesced     atomic.Uint64
	simNanos      atomic.Int64
	simOps        atomic.Uint64

	// Trace-driven simulation (zero when Options.Traces is off).
	tracesRecorded   atomic.Uint64
	traceReplays     atomic.Uint64
	traceFallbacks   atomic.Uint64
	traceDiskLoads   atomic.Uint64
	traceLoadErrors  atomic.Uint64
	traceRecordNanos atomic.Int64
}

// Stats is a point-in-time snapshot of the service counters. All
// fields are cumulative since service creation.
type Stats struct {
	// Job accounting. Submitted counts every Submit/SubmitSweep job,
	// including ones answered from the cache without simulating.
	JobsSubmitted uint64 `json:"jobs_submitted"`
	JobsCompleted uint64 `json:"jobs_completed"`
	JobsFailed    uint64 `json:"jobs_failed"`
	JobsCanceled  uint64 `json:"jobs_canceled"`

	// Cache accounting. SimsRun counts simulations actually executed;
	// CacheHits counts jobs answered from memory or disk; Coalesced
	// counts jobs that joined an identical in-flight simulation
	// (single-flight), so SimsRun + CacheHits + Coalesced ==
	// JobsCompleted when nothing failed.
	SimsRun uint64 `json:"sims_run"`
	// SimsSampled counts executed simulations that ran sampled (a
	// subset of SimsRun).
	SimsSampled uint64 `json:"sims_sampled"`
	// SimsAbandoned counts running simulations canceled mid-flight
	// because every waiter's context died (client disconnects, expired
	// sweep deadlines).
	SimsAbandoned uint64 `json:"sims_abandoned"`
	CacheHits     uint64 `json:"cache_hits"`
	DiskHits      uint64 `json:"disk_hits"`
	CacheMisses   uint64 `json:"cache_misses"`
	Coalesced     uint64 `json:"coalesced"`
	CacheSize     int    `json:"cache_size"`

	// Throughput. SimWallTime is the summed wall time of executed
	// simulations (overlapping across workers); SimulatedOps counts
	// the µ-ops each executed simulation advanced through — warmup +
	// measure for full runs, the whole sampled stream (skipped,
	// warmed and measured µ-ops) for sampled ones.
	SimWallTime  time.Duration `json:"sim_wall_time_ns"`
	SimulatedOps uint64        `json:"simulated_uops"`

	// UopsPerSec is SimulatedOps over summed wall time — per-worker
	// simulation speed, not aggregate throughput.
	UopsPerSec float64 `json:"uops_per_sec"`

	// Trace-driven simulation. TracesRecorded counts workload streams
	// interpreted and encoded; TraceReplays counts simulations served
	// by replaying one; TraceFallbacks counts simulations that ran
	// execute-driven (a length over the ceiling or overflowing
	// ReplayNeed, or a stale/unattachable trace); TraceDiskLoads and
	// TraceLoadErrors account for traces loaded from the artifact store.
	TracesRecorded  uint64 `json:"traces_recorded"`
	TraceReplays    uint64 `json:"trace_replays"`
	TraceFallbacks  uint64 `json:"trace_fallbacks"`
	TraceDiskLoads  uint64 `json:"trace_disk_loads"`
	TraceLoadErrors uint64 `json:"trace_load_errors"`
	// TraceRecordTime is the summed wall time spent recording.
	TraceRecordTime time.Duration `json:"trace_record_time_ns"`
}

func (m *metrics) snapshot(cacheSize int) Stats {
	s := Stats{
		JobsSubmitted: m.submitted.Load(),
		JobsCompleted: m.completed.Load(),
		JobsFailed:    m.failed.Load(),
		JobsCanceled:  m.canceled.Load(),
		SimsRun:       m.simsRun.Load(),
		SimsSampled:   m.sampledRuns.Load(),
		SimsAbandoned: m.abandonedRuns.Load(),
		CacheHits:     m.cacheHits.Load(),
		DiskHits:      m.diskHits.Load(),
		CacheMisses:   m.cacheMisses.Load(),
		Coalesced:     m.coalesced.Load(),
		CacheSize:     cacheSize,
		SimWallTime:   time.Duration(m.simNanos.Load()),
		SimulatedOps:  m.simOps.Load(),

		TracesRecorded:  m.tracesRecorded.Load(),
		TraceReplays:    m.traceReplays.Load(),
		TraceFallbacks:  m.traceFallbacks.Load(),
		TraceDiskLoads:  m.traceDiskLoads.Load(),
		TraceLoadErrors: m.traceLoadErrors.Load(),
		TraceRecordTime: time.Duration(m.traceRecordNanos.Load()),
	}
	if secs := s.SimWallTime.Seconds(); secs > 0 {
		s.UopsPerSec = float64(s.SimulatedOps) / secs
	}
	return s
}
