package main

import (
	"net/http"
	"time"

	"eole/internal/jobs"
	"eole/internal/obs"
)

// newClient builds the shared job-API client (the same one the cluster
// coordinator dispatches with, and the server's own wire types, so the
// CLI cannot drift from what eoled serves) for one server. timeout
// bounds every request except the sweep event stream.
func newClient(server string, timeout time.Duration) *jobs.Client {
	return &jobs.Client{Base: server, HTTP: &http.Client{}, Timeout: timeout}
}

// serverStats is the slice of eoled's /v1/stats the status table
// shows; -o json bypasses it and prints the raw body.
type serverStats struct {
	Version       string     `json:"version"`
	UptimeNS      int64      `json:"uptime_ns"`
	QueueLen      int        `json:"queue_len"`
	JobsSubmitted uint64     `json:"jobs_submitted"`
	JobsCompleted uint64     `json:"jobs_completed"`
	SimsRun       uint64     `json:"sims_run"`
	SimsAbandoned uint64     `json:"sims_abandoned"`
	CacheHits     uint64     `json:"cache_hits"`
	Coalesced     uint64     `json:"coalesced"`
	Jobs          jobs.Stats `json:"jobs"`
}

// debugTraceList mirrors eoled's GET /v1/debug/traces listing.
type debugTraceList struct {
	Enabled bool               `json:"enabled"`
	Traces  []obs.TraceSummary `json:"traces"`
}
