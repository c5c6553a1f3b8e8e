package main

import (
	"errors"
	"fmt"
	"net/http"

	"eole"
	"eole/internal/cluster"
)

// clusterSweepResult is one cell of a distributed sweep: the standard
// sweep cell plus placement (which worker computed it, in how many
// attempts). Exactly one of Report/Error is set.
type clusterSweepResult struct {
	Config   string       `json:"config"`
	Workload string       `json:"workload"`
	Worker   string       `json:"worker,omitempty"`
	Attempts int          `json:"attempts,omitempty"`
	Report   *eole.Report `json:"report,omitempty"`
	Error    string       `json:"error,omitempty"`
}

type clusterSweepResponse struct {
	Results []clusterSweepResult `json:"results"`
}

// handleClusterSweep shards a sweep across the coordinator's workers.
// The body is the same shape as /v1/sweep (named/inline configs, a
// design-space grid, workloads, run lengths, sampling) and is resolved
// by the same validation path, so a distributed sweep means exactly
// what a local one does. Identical cells are dispatched once
// cluster-wide; results are relabeled per request exactly as /v1/sweep
// relabels, so the reports are byte-identical to a single-node run.
func (s *server) handleClusterSweep(w http.ResponseWriter, r *http.Request) {
	var req wireRequest
	if err := decodeStrict(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	reqs, err := s.resolve(req, formSweep)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	run, err := s.opts.coord.Start(r.Context(), reqs)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	reports, _ := run.Wait(r.Context())
	if reports == nil {
		// Only a dead request context gets here (cell failures still
		// return the slice); report the disconnect/deadline.
		err := r.Context().Err()
		if err == nil {
			err = errors.New("cluster sweep aborted")
		}
		writeError(w, statusFor(err), err)
		return
	}
	meta := run.Meta()
	resp := clusterSweepResponse{Results: make([]clusterSweepResult, len(reqs))}
	for i := range reqs {
		res := clusterSweepResult{
			Config:   reqs[i].Config.Label(),
			Workload: reqs[i].Workload,
			Worker:   meta[i].Worker,
			Attempts: meta[i].Attempts,
			Report:   reports[i],
		}
		if reports[i] == nil {
			// Per-cell failures surface in the cell, mirroring
			// /v1/sweep; the run's joined error repeats them all.
			res.Error = cellError(run, i)
		}
		resp.Results[i] = res
	}
	writeJSON(w, http.StatusOK, resp)
}

// cellError extracts the per-index error message from a finished run.
func cellError(run *cluster.Run, i int) string {
	if err := run.Err(i); err != nil {
		return err.Error()
	}
	return "no result"
}

// handleClusterWorkers reports the coordinator's merged view: each
// worker's circuit state and dispatch counters, its own /v1/stats
// (fetched live, with per-endpoint attribution), and the cluster-wide
// service totals.
func (s *server) handleClusterWorkers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.opts.coord.Stats(r.Context()))
}
