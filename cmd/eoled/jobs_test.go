package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"eole/internal/jobs"
	"eole/internal/simsvc"
)

// newJobsHandler builds a handler with its own service handle exposed
// so tests can watch abandonment counters, plus a short stream
// heartbeat so keep-alive frames are observable in test time.
func newJobsHandler(t *testing.T, par int, heartbeat time.Duration) (http.Handler, *simsvc.Service) {
	t.Helper()
	svc, err := simsvc.New(simsvc.Options{Parallelism: par})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	h := newServer(svc, serverOptions{
		defaultWarmup:  2_000,
		defaultMeasure: 5_000,
		maxUops:        50_000_000,
		jobHeartbeat:   heartbeat,
	})
	return h, svc
}

// createJob posts a body to /v1/jobs and decodes the 202.
func createJob(t *testing.T, h http.Handler, body any) jobs.Created {
	t.Helper()
	rec := postJSON(t, h, "/v1/jobs", body)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("POST /v1/jobs: %d: %s", rec.Code, rec.Body.String())
	}
	var resp jobs.Created
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ID == "" || resp.StatusURL == "" || resp.EventsURL == "" {
		t.Fatalf("incomplete create response: %+v", resp)
	}
	return resp
}

// waitJobState polls the status URL until the job is terminal.
func waitJobState(t *testing.T, h http.Handler, statusURL string, want jobs.State) jobs.Status {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var st jobs.Status
		if rec := getJSON(t, h, statusURL, &st); rec.Code != http.StatusOK {
			t.Fatalf("GET %s: %d", statusURL, rec.Code)
		}
		if st.State.Terminal() {
			if st.State != want {
				t.Fatalf("terminal state %q, want %q", st.State, want)
			}
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job never reached %q", want)
	return jobs.Status{}
}

// sseFrame is one parsed SSE frame.
type sseFrame struct {
	id    int
	event string
	data  string
}

// parseSSE splits a server-sent-event body into frames, keeping
// comment frames (": hb") as event "comment".
func parseSSE(t *testing.T, body string) []sseFrame {
	t.Helper()
	var frames []sseFrame
	for _, chunk := range strings.Split(body, "\n\n") {
		chunk = strings.TrimSpace(chunk)
		if chunk == "" {
			continue
		}
		var f sseFrame
		for _, line := range strings.Split(chunk, "\n") {
			switch {
			case strings.HasPrefix(line, ": "):
				f.event = "comment"
			case strings.HasPrefix(line, "id: "):
				n, err := strconv.Atoi(strings.TrimPrefix(line, "id: "))
				if err != nil {
					t.Fatalf("bad SSE id line %q", line)
				}
				f.id = n
			case strings.HasPrefix(line, "event: "):
				f.event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				f.data = strings.TrimPrefix(line, "data: ")
			default:
				t.Fatalf("unexpected SSE line %q", line)
			}
		}
		frames = append(frames, f)
	}
	return frames
}

// TestJobCreatePollDelete covers the non-streaming lifecycle over
// HTTP: create (both request forms), poll to completion, list, 404s,
// and idempotent cancellation of a terminal job.
func TestJobCreatePollDelete(t *testing.T) {
	h, _ := newJobsHandler(t, 2, 0)

	// Sweep form.
	sweep := createJob(t, h, wireRequest{
		Configs:   []configRef{namedRef("EOLE_4_64"), namedRef("Baseline_6_64")},
		Workloads: []string{"gzip", "art"},
	})
	if sweep.CellsTotal != 4 {
		t.Fatalf("sweep job sized %d, want 4", sweep.CellsTotal)
	}
	st := waitJobState(t, h, sweep.StatusURL, jobs.StateDone)
	if st.CellsCompleted != 4 || st.CellsFailed != 0 || len(st.Cells) != 4 {
		t.Fatalf("terminal status %+v", st)
	}

	// Simulate form, inline config body via the same union endpoint.
	cfg, err := namedRef("EOLE_4_64").resolve()
	if err != nil {
		t.Fatal(err)
	}
	one := createJob(t, h, wireRequest{Config: inlineRef(cfg), Workload: "namd"})
	if one.CellsTotal != 1 {
		t.Fatalf("simulate-form job sized %d, want 1", one.CellsTotal)
	}
	waitJobState(t, h, one.StatusURL, jobs.StateDone)

	var list jobs.ListResponse
	if rec := getJSON(t, h, "/v1/jobs", &list); rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/jobs: %d", rec.Code)
	}
	if len(list.Jobs) != 2 {
		t.Fatalf("%d jobs listed, want 2", len(list.Jobs))
	}
	if list.Jobs[0].ID != sweep.ID || list.Jobs[1].ID != one.ID {
		t.Errorf("list order %s,%s, want oldest first %s,%s",
			list.Jobs[0].ID, list.Jobs[1].ID, sweep.ID, one.ID)
	}

	// Deleting a terminal job is a no-op that still answers 200.
	req := httptest.NewRequest(http.MethodDelete, sweep.StatusURL, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Errorf("DELETE terminal job: %d, want 200", rec.Code)
	}

	// Unknown IDs are 404 on every verb.
	for _, probe := range []*http.Request{
		httptest.NewRequest(http.MethodGet, "/v1/jobs/deadbeefdeadbeef", nil),
		httptest.NewRequest(http.MethodDelete, "/v1/jobs/deadbeefdeadbeef", nil),
		httptest.NewRequest(http.MethodGet, "/v1/jobs/deadbeefdeadbeef/events", nil),
	} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, probe)
		if rec.Code != http.StatusNotFound {
			t.Errorf("%s %s: %d, want 404", probe.Method, probe.URL.Path, rec.Code)
		}
	}
}

// TestJobRequestValidation pins the union-body rules: strict decode,
// no form mixing, and the same config/workload validation the
// synchronous endpoints apply.
func TestJobRequestValidation(t *testing.T) {
	h, _ := newJobsHandler(t, 1, 0)
	for name, body := range map[string]any{
		"mixed forms":             wireRequest{Config: namedRef("EOLE_4_64"), Workload: "gzip", Workloads: []string{"art"}},
		"workload without config": wireRequest{Workload: "gzip"},
		"unknown config":          wireRequest{Config: namedRef("NoSuch"), Workload: "gzip"},
		"unknown workload":        wireRequest{Config: namedRef("EOLE_4_64"), Workload: "nope"},
		"unknown field":           map[string]any{"confgs": []string{"EOLE_4_64"}},
	} {
		if rec := postJSON(t, h, "/v1/jobs", body); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: %d, want 400", name, rec.Code)
		}
	}
	// Bad resume cursors on the events endpoint.
	job := createJob(t, h, wireRequest{Config: namedRef("EOLE_4_64"), Workload: "gzip"})
	waitJobState(t, h, job.StatusURL, jobs.StateDone)
	for _, q := range []string{"?from=x", "?from=-1"} {
		req := httptest.NewRequest(http.MethodGet, job.EventsURL+q, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("events%s: %d, want 400", q, rec.Code)
		}
	}
}

// TestJobEventsSSE pins the SSE wire format and the replay semantics
// against a terminal job: frame ids mirror event seqs, ordering is
// total with the terminal frame last, ?from and Last-Event-ID resume
// mid-log, and a replayed suffix never re-sends what the client has.
func TestJobEventsSSE(t *testing.T) {
	h, _ := newJobsHandler(t, 2, 0)
	job := createJob(t, h, wireRequest{
		Configs:   []configRef{namedRef("EOLE_4_64")},
		Workloads: []string{"gzip", "art"},
	})
	waitJobState(t, h, job.StatusURL, jobs.StateDone)

	req := httptest.NewRequest(http.MethodGet, job.EventsURL, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("events: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("Content-Type %q", ct)
	}
	frames := parseSSE(t, rec.Body.String())
	if len(frames) != 3 {
		t.Fatalf("%d frames, want 2 cells + terminal", len(frames))
	}
	for i, f := range frames {
		if f.id != i+1 {
			t.Errorf("frame %d has id %d, want seq-contiguous", i, f.id)
		}
		var ev jobs.Event
		if err := json.Unmarshal([]byte(f.data), &ev); err != nil {
			t.Fatalf("frame %d data: %v", i, err)
		}
		if ev.Seq != f.id {
			t.Errorf("frame %d: id %d != data seq %d", i, f.id, ev.Seq)
		}
		if i < 2 {
			if f.event != jobs.EventCell || ev.Cell == nil || ev.Cell.Encoded.Bytes() == nil {
				t.Errorf("frame %d is %q with cell %v, want a report-carrying cell", i, f.event, ev.Cell)
			}
		} else if f.event != jobs.EventDone || ev.State != jobs.StateDone {
			t.Errorf("terminal frame %q state %q", f.event, ev.State)
		}
	}

	// ?from resumes after the given seq.
	req = httptest.NewRequest(http.MethodGet, job.EventsURL+"?from=2", nil)
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got := parseSSE(t, rec.Body.String()); len(got) != 1 || got[0].id != 3 {
		t.Errorf("?from=2 replayed %d frames (first id %d), want just the terminal", len(got), got[0].id)
	}
	// Last-Event-ID (what a reconnecting EventSource sends) does too.
	req = httptest.NewRequest(http.MethodGet, job.EventsURL, nil)
	req.Header.Set("Last-Event-ID", "1")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got := parseSSE(t, rec.Body.String()); len(got) != 2 || got[0].id != 2 {
		t.Errorf("Last-Event-ID resume replayed %d frames, want 2 from seq 2", len(got))
	}
}

// TestJobEventsNDJSON: the Accept negotiation and the line protocol —
// every line one event object, same ordering and terminal guarantees
// as SSE.
func TestJobEventsNDJSON(t *testing.T) {
	h, _ := newJobsHandler(t, 2, 0)
	job := createJob(t, h, wireRequest{
		Configs:   []configRef{namedRef("EOLE_4_64")},
		Workloads: []string{"gzip"},
	})
	waitJobState(t, h, job.StatusURL, jobs.StateDone)

	req := httptest.NewRequest(http.MethodGet, job.EventsURL, nil)
	req.Header.Set("Accept", "application/x-ndjson")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("events: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d lines, want cell + terminal", len(lines))
	}
	var cell, done jobs.Event
	if err := json.Unmarshal([]byte(lines[0]), &cell); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(lines[1]), &done); err != nil {
		t.Fatal(err)
	}
	if cell.Type != jobs.EventCell || cell.Seq != 1 || cell.Cell.Encoded.Bytes() == nil {
		t.Errorf("first line %+v", cell)
	}
	if done.Type != jobs.EventDone || done.State != jobs.StateDone || done.Completed != 1 {
		t.Errorf("terminal line %+v", done)
	}
}

// TestJobEventsLiveResume drives a real server: attach to a running
// job's stream, drop the connection mid-stream, re-attach with the
// resume cursor, and verify the union of both reads is exactly the
// full event sequence — the reconnect loses nothing and repeats
// nothing.
func TestJobEventsLiveResume(t *testing.T) {
	h, _ := newJobsHandler(t, 1, 0)
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)

	job := createJob(t, h, wireRequest{
		Configs:   []configRef{namedRef("EOLE_4_64"), namedRef("Baseline_6_64")},
		Workloads: []string{"gzip", "art"},
		Measure:   20_000,
	})

	// First attach: NDJSON (easier to read incrementally), read the
	// first cell event, then hang up mid-stream.
	req, err := http.NewRequest(http.MethodGet, srv.URL+job.EventsURL, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("attach: %d", resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	line, err := br.ReadBytes('\n')
	if err != nil {
		t.Fatal(err)
	}
	var first jobs.Event
	if err := json.Unmarshal(line, &first); err != nil {
		t.Fatal(err)
	}
	if first.Type != jobs.EventCell || first.Seq != 1 {
		t.Fatalf("first streamed event %+v", first)
	}
	resp.Body.Close() // mid-stream disconnect

	// Re-attach resuming after what we saw; read to the terminal.
	req, err = http.NewRequest(http.MethodGet,
		fmt.Sprintf("%s%s?from=%d", srv.URL, job.EventsURL, first.Seq), nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	seen := map[int]bool{first.Seq: true}
	sc := bufio.NewScanner(resp.Body)
	var last jobs.Event
	for sc.Scan() {
		if len(strings.TrimSpace(sc.Text())) == 0 {
			continue
		}
		var ev jobs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Type == jobs.EventHeartbeat {
			continue
		}
		if seen[ev.Seq] {
			t.Errorf("seq %d delivered twice across reconnect", ev.Seq)
		}
		seen[ev.Seq] = true
		last = ev
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if last.Type != jobs.EventDone || last.State != jobs.StateDone {
		t.Fatalf("stream ended on %+v, want the done terminal", last)
	}
	// 4 cells + terminal, each exactly once across both connections.
	for seq := 1; seq <= 5; seq++ {
		if !seen[seq] {
			t.Errorf("seq %d lost across reconnect", seq)
		}
	}
	if len(seen) != 5 {
		t.Errorf("%d distinct events, want 5", len(seen))
	}
}

// TestJobEventsHeartbeatAndCancel: an idle stream emits keep-alive
// frames, and DELETE terminates it with a canceled terminal event —
// observed end to end as an abandoned simulation in /v1/stats.
func TestJobEventsHeartbeatAndCancel(t *testing.T) {
	h, svc := newJobsHandler(t, 1, 5*time.Millisecond)
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)

	// One long cell so the stream sits idle emitting heartbeats.
	job := createJob(t, h, wireRequest{
		Config:   namedRef("EOLE_4_64"),
		Workload: "mcf",
		Measure:  5_000_000,
	})
	req, err := http.NewRequest(http.MethodGet, srv.URL+job.EventsURL, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	sc := bufio.NewScanner(resp.Body)
	heartbeats := 0
	canceled := false
	var terminal jobs.Event
	for sc.Scan() {
		var ev jobs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		if ev.Type == jobs.EventHeartbeat {
			heartbeats++
			if heartbeats >= 3 && !canceled {
				// Proven alive while idle: now cancel server-side.
				canceled = true
				dreq, err := http.NewRequest(http.MethodDelete, srv.URL+job.StatusURL, nil)
				if err != nil {
					t.Fatal(err)
				}
				dresp, err := http.DefaultClient.Do(dreq)
				if err != nil {
					t.Fatal(err)
				}
				io.Copy(io.Discard, dresp.Body)
				dresp.Body.Close()
				if dresp.StatusCode != http.StatusOK {
					t.Fatalf("DELETE: %d", dresp.StatusCode)
				}
			}
			continue
		}
		terminal = ev
	}
	if err := sc.Err(); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if heartbeats < 3 {
		t.Errorf("%d heartbeats observed, want >= 3", heartbeats)
	}
	if terminal.Type != jobs.EventDone || terminal.State != jobs.StateCanceled {
		t.Fatalf("stream ended on %+v, want a canceled terminal frame", terminal)
	}

	// The cancel reached the simulator: the running cell is abandoned
	// (by the job's leave hook, which runs on its own goroutine, so give
	// it a moment), and /v1/stats surfaces it along with the registry
	// accounting.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && svc.Stats().SimsAbandoned == 0 {
		time.Sleep(5 * time.Millisecond)
	}
	var st statsResponse
	if rec := getJSON(t, h, "/v1/stats", &st); rec.Code != http.StatusOK {
		t.Fatalf("/v1/stats: %d", rec.Code)
	}
	if st.SimsAbandoned < 1 {
		t.Errorf("sims_abandoned = %d after DELETE, want >= 1", st.SimsAbandoned)
	}
	if st.Jobs.Created < 1 || st.Jobs.Canceled != 1 {
		t.Errorf("stats jobs block %+v", st.Jobs)
	}
}

// TestJobStreamClientDisconnect: a client that vanishes mid-stream
// must release its server-side streamer (stream gauge back to zero)
// without disturbing the job.
func TestJobStreamClientDisconnect(t *testing.T) {
	h, _ := newJobsHandler(t, 1, 5*time.Millisecond)
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)

	job := createJob(t, h, wireRequest{
		Config:   namedRef("EOLE_4_64"),
		Workload: "mcf",
		Measure:  2_000_000,
	})
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+job.EventsURL, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	// Read one heartbeat so the streamer is provably attached, then
	// drop the connection.
	buf := make([]byte, 1)
	if _, err := resp.Body.Read(buf); err != nil {
		t.Fatal(err)
	}
	cancel()
	resp.Body.Close()

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		var st statsResponse
		getJSON(t, h, "/v1/stats", &st)
		if st.Jobs.Streams == 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	var st statsResponse
	getJSON(t, h, "/v1/stats", &st)
	if st.Jobs.Streams != 0 {
		t.Errorf("%d streams still attached after client disconnect", st.Jobs.Streams)
	}
	// The job itself is unaffected; clean up by cancel.
	dreq := httptest.NewRequest(http.MethodDelete, job.StatusURL, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, dreq)
	if rec.Code != http.StatusOK {
		t.Fatalf("cleanup DELETE: %d", rec.Code)
	}
	waitJobState(t, h, job.StatusURL, jobs.StateCanceled)
}
