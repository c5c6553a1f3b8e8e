package cluster

import (
	"context"
	"sync"

	"eole/internal/simsvc"
)

// ServiceStats is the wire form of a worker's GET /v1/stats: the
// embedded simsvc counters plus eoled's per-endpoint request/error
// counters, which let merged cluster stats attribute load per worker.
type ServiceStats struct {
	simsvc.Stats
	Endpoints map[string]EndpointStats `json:"endpoints,omitempty"`
}

// WorkerStats pairs a worker's coordinator-side status with its own
// service counters (nil when the worker could not be reached).
type WorkerStats struct {
	WorkerStatus
	Service *ServiceStats `json:"service,omitempty"`
}

// Stats is the merged cluster view: per-worker status and counters,
// plus the sum of every reachable worker's service stats.
type Stats struct {
	Workers []WorkerStats `json:"workers"`
	// Service sums the reachable workers' simsvc counters. UopsPerSec
	// is recomputed from the summed ops and wall time, so it remains
	// per-worker simulation speed, not aggregate cluster throughput.
	Service simsvc.Stats `json:"service"`
}

// Stats fetches /v1/stats from every worker whose circuit is closed
// (concurrently, bounded by the probe timeout) and merges the results.
func (c *Coordinator) Stats(ctx context.Context) Stats {
	statuses := c.Workers()
	out := Stats{Workers: make([]WorkerStats, len(statuses))}
	ctx, cancel := context.WithTimeout(ctx, c.opts.ProbeTimeout)
	defer cancel()
	var wg sync.WaitGroup
	for i, st := range statuses {
		out.Workers[i] = WorkerStats{WorkerStatus: st}
		if st.State == "open" {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// statuses is index-aligned with c.workers. An unreachable
			// worker simply has no service column.
			var s ServiceStats
			if err := c.workers[i].api.getJSON(ctx, "/v1/stats", &s); err == nil {
				out.Workers[i].Service = &s
			}
		}(i)
	}
	wg.Wait()
	for _, w := range out.Workers {
		if w.Service != nil {
			out.Service = addStats(out.Service, w.Service.Stats)
		}
	}
	if secs := out.Service.SimWallTime.Seconds(); secs > 0 {
		out.Service.UopsPerSec = float64(out.Service.SimulatedOps) / secs
	}
	return out
}

// addStats sums two service snapshots field by field. UopsPerSec is
// left for the caller to recompute from the summed totals.
func addStats(a, b simsvc.Stats) simsvc.Stats {
	return simsvc.Stats{
		JobsSubmitted: a.JobsSubmitted + b.JobsSubmitted,
		JobsCompleted: a.JobsCompleted + b.JobsCompleted,
		JobsFailed:    a.JobsFailed + b.JobsFailed,
		JobsCanceled:  a.JobsCanceled + b.JobsCanceled,
		SimsRun:       a.SimsRun + b.SimsRun,
		SimsSampled:   a.SimsSampled + b.SimsSampled,
		SimsAbandoned: a.SimsAbandoned + b.SimsAbandoned,
		CacheHits:     a.CacheHits + b.CacheHits,
		DiskHits:      a.DiskHits + b.DiskHits,
		CacheMisses:   a.CacheMisses + b.CacheMisses,
		Coalesced:     a.Coalesced + b.Coalesced,
		CacheSize:     a.CacheSize + b.CacheSize,
		SimWallTime:   a.SimWallTime + b.SimWallTime,
		SimulatedOps:  a.SimulatedOps + b.SimulatedOps,

		TracesRecorded:  a.TracesRecorded + b.TracesRecorded,
		TraceReplays:    a.TraceReplays + b.TraceReplays,
		TraceFallbacks:  a.TraceFallbacks + b.TraceFallbacks,
		TraceDiskLoads:  a.TraceDiskLoads + b.TraceDiskLoads,
		TraceLoadErrors: a.TraceLoadErrors + b.TraceLoadErrors,
		TraceRecordTime: a.TraceRecordTime + b.TraceRecordTime,
	}
}
