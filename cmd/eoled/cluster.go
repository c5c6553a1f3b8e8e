package main

import (
	"fmt"
	"net/http"
	"strconv"
)

// handleClusterSweep shards a sweep across the coordinator's workers.
// The body is the same shape as /v1/sweep (named/inline configs, a
// design-space grid, workloads, run lengths, sampling) and is resolved
// by the same validation path, so a distributed sweep means exactly
// what a local one does. Identical cells are dispatched once
// cluster-wide, and cells the coordinator's own store holds not at all.
// The reply is stitched like /v1/sweep's: each report is the bytes a
// worker relayed, spliced in under the label the request asked for —
// byte-identical to a single-node run — plus the cell's placement
// (worker, attempts; neither for a cached cell).
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
		writeError(w, statusFor(err), err)
		return
	}
	select {
	case <-run.Done():
	case <-r.Context().Done():
		// The run fails its queued cells and cancels its dispatches on
		// the same context; report the disconnect/deadline.
		writeError(w, statusFor(r.Context().Err()), r.Context().Err())
		return
	}
	meta, labels := run.Meta(), cellLabels(reqs)
	buf := bodyPool.Get().(*[]byte)
	defer putBody(buf)
	body := append((*buf)[:0], `{"results":[`...)
	for i := range reqs {
		if i > 0 {
			body = append(body, ',')
		}
		body = appendMember(body, `{"config":`, labels[i])
		body = appendMember(body, `,"workload":`, reqs[i].Workload)
		if meta[i].Worker != "" {
			body = appendMember(body, `,"worker":`, meta[i].Worker)
		}
		if meta[i].Attempts > 0 {
			body = strconv.AppendInt(append(body, `,"attempts":`...), int64(meta[i].Attempts), 10)
		}
		body = strconv.AppendBool(append(body, `,"cached":`...), meta[i].Cached)
		// Per-cell failures surface in the cell, mirroring /v1/sweep.
		errMsg := ""
		if err := run.Err(i); err != nil {
			errMsg = err.Error()
		}
		body = appendOutcome(body, run.Encoded(i), labels[i], errMsg)
	}
	body = append(body, "]}\n"...)
	*buf = body
	writeBody(w, http.StatusOK, body)
}

// handleClusterWorkers reports the coordinator's merged view: each
// worker's circuit state and dispatch counters, its own /v1/stats
// (fetched live, with per-endpoint attribution), and the cluster-wide
// service totals.
func (s *server) handleClusterWorkers(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.opts.coord.Stats(r.Context()))
}
