package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"eole/internal/jobs"
	"eole/internal/simsvc"
)

func (s *server) handleJobCreate(w http.ResponseWriter, r *http.Request) {
	var req wireRequest
	if err := decodeStrict(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	reqs, err := s.resolve(req, formSimulate|formSweep)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if !s.admit(w, simsvc.Keys(reqs)) {
		return
	}
	job, err := s.jobs.Create(r.Context(), reqs)
	if err != nil {
		if errors.Is(err, jobs.ErrBusy) {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, err)
			return
		}
		writeError(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusAccepted, jobs.Created{
		ID:         job.ID(),
		State:      jobs.StateQueued,
		CellsTotal: len(reqs),
		StatusURL:  "/v1/jobs/" + job.ID(),
		EventsURL:  "/v1/jobs/" + job.ID() + "/events",
	})
}

func (s *server) handleJobList(w http.ResponseWriter, _ *http.Request) {
	list := s.jobs.List()
	if list == nil {
		list = []jobs.Status{}
	}
	writeJSON(w, http.StatusOK, jobs.ListResponse{Jobs: list})
}

func (s *server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, jobs.ErrNotFound)
		return
	}
	writeJSON(w, http.StatusOK, job.Status(true))
}

// handleJobCancel cancels via the job's own context, which feeds the
// service's abandonment path: queued cells are dropped, and running
// simulations with no other waiters stop at the core's next
// checkpoint (counted as sims_abandoned). The response is the
// post-cancel snapshot; cancellation of a terminal job is a no-op,
// not an error.
func (s *server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobs.Cancel(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, jobs.ErrNotFound)
		return
	}
	writeJSON(w, http.StatusOK, job.Status(true))
}

// wantsNDJSON reports whether the Accept header prefers NDJSON over
// the SSE default. The check is deliberately simple: any mention of
// the NDJSON media type opts in; everything else (including */*)
// gets SSE, the format browsers' EventSource speaks natively.
func wantsNDJSON(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), jobs.NDJSON)
}

// eventsAfter resolves the resume position: an explicit ?from=N query
// wins, else the SSE-standard Last-Event-ID header a reconnecting
// EventSource sends automatically. Both mean "I have seen seq <= N".
func eventsAfter(r *http.Request) (int, error) {
	raw := r.URL.Query().Get("from")
	if raw == "" {
		raw = r.Header.Get("Last-Event-ID")
	}
	if raw == "" {
		return 0, nil
	}
	n, err := strconv.Atoi(raw)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad resume position %q: want a non-negative event seq", raw)
	}
	return n, nil
}

// handleJobEvents streams the job's event log: replay everything
// after the resume position, then follow live appends until the
// terminal event, a heartbeat keeping idle connections alive in
// between. SSE by default; NDJSON via Accept. The stream always ends
// with the terminal frame — a late attach to a finished job replays
// the full log and closes immediately, so clients never block on a
// job that is already over.
func (s *server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	job, ok := s.jobs.Get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, jobs.ErrNotFound)
		return
	}
	after, err := eventsAfter(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, errors.New("streaming unsupported by this connection"))
		return
	}
	ndjson := wantsNDJSON(r)
	if ndjson {
		w.Header().Set("Content-Type", jobs.NDJSON)
	} else {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	}
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	s.jobs.StreamAttached()
	defer s.jobs.StreamDetached()
	heartbeat := s.opts.jobHeartbeat
	if heartbeat <= 0 {
		heartbeat = 15 * time.Second
	}
	ticker := time.NewTicker(heartbeat)
	defer ticker.Stop()
	for {
		evs, changed := job.EventsSince(after)
		for i := range evs {
			if err := writeEvent(w, &evs[i], ndjson); err != nil {
				return
			}
			after = evs[i].Seq
			if evs[i].Type == jobs.EventDone {
				flusher.Flush()
				return
			}
		}
		flusher.Flush()
		select {
		case <-changed:
		case <-ticker.C:
			if err := writeHeartbeat(w, ndjson); err != nil {
				return
			}
			flusher.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// writeEvent emits one frame. SSE carries the seq as the frame id (so
// EventSource reconnects resume for free via Last-Event-ID) and the
// event type in the event field; the data line is the same JSON the
// NDJSON form sends whole.
func writeEvent(w http.ResponseWriter, ev *jobs.Event, ndjson bool) error {
	var data []byte
	var err error
	if ev.Type == jobs.EventCell {
		data = appendCellEvent(nil, ev)
	} else if data, err = json.Marshal(ev); err != nil {
		return err
	}
	if ndjson {
		data = append(data, '\n')
		_, err = w.Write(data)
		return err
	}
	_, err = fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data)
	return err
}

// writeHeartbeat keeps an idle stream's connection (and any proxies
// on the way) from timing out. SSE uses a comment frame, which
// EventSource ignores by design; NDJSON sends an explicit typed line
// so line-oriented consumers can skip it without guessing.
func writeHeartbeat(w http.ResponseWriter, ndjson bool) error {
	var err error
	if ndjson {
		_, err = fmt.Fprintf(w, "{\"type\":%q}\n", jobs.EventHeartbeat)
	} else {
		_, err = fmt.Fprint(w, ": hb\n\n")
	}
	return err
}
