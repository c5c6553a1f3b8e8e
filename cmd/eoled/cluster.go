package main

import "net/http"

// handleClusterWorkers reports the coordinator's merged view: each
// worker's circuit state and dispatch counters, its own /v1/stats
// (fetched live, with per-endpoint attribution), and the cluster-wide
// service totals.
func (s *server) handleClusterWorkers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.opts.coord.Stats(r.Context()))
}
