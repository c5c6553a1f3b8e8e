package jobs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"eole/internal/obs"
)

// Client is the one HTTP client for eoled's job API: the cluster
// coordinator dispatches cells through it and eolectl drives sweeps
// with it, so create, follow, resume and cancel exist once. Every
// request carries the context's request ID and W3C trace context, so
// a caller's logs and spans line up with the server's.
type Client struct {
	// Base is the server's base URL ("http://host:8080", no trailing
	// slash).
	Base string
	// HTTP issues the requests.
	HTTP *http.Client
	// Timeout bounds every round trip except the event stream, which
	// legitimately outlives any per-request deadline and runs under the
	// caller's context alone (0 = the context alone everywhere).
	Timeout time.Duration
}

// NDJSON is the media type of the line-delimited event stream: the
// client asks for it with Accept, the server answers with it as
// Content-Type (the default without it is SSE).
const NDJSON = "application/x-ndjson"

// Created is the wire form of eoled's 202 answer to POST /v1/jobs:
// everything a client needs to follow up — poll StatusURL, stream
// EventsURL, DELETE StatusURL to cancel.
type Created struct {
	ID         string `json:"id"`
	State      State  `json:"state"`
	CellsTotal int    `json:"cells_total"`
	StatusURL  string `json:"status_url"`
	EventsURL  string `json:"events_url"`
}

// ListResponse is the wire form of GET /v1/jobs.
type ListResponse struct {
	Jobs []Status `json:"jobs"`
}

// StatusError is a well-formed HTTP answer with an unexpected status:
// the server is alive and said no. Transport failures and malformed
// bodies are plain errors, which is how callers tell a refusing server
// from a broken one.
type StatusError struct {
	Method, Path string
	Code         int
	// RetryAfter is the raw Retry-After header (429 backpressure).
	RetryAfter string
	// Message is the server's {"error": ...} text, else a body snippet.
	Message string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("%s %s: HTTP %d: %s", e.Method, e.Path, e.Code, e.Message)
}

const (
	// maxBodyBytes bounds any non-streaming response body (an
	// assembled trace is the largest legitimate one).
	maxBodyBytes = 1 << 26
	// maxFrameBytes bounds one event-stream frame; a cell frame is one
	// report, a few KB.
	maxFrameBytes = 1 << 22
	// streamReconnects bounds how many times Follow re-attaches to a
	// dropped event stream before giving up.
	streamReconnects = 3
	// abandonTimeout bounds the best-effort cancel Follow sends when
	// it gives a job up.
	abandonTimeout = 5 * time.Second
)

// start issues one request. The caller closes the response body.
func (c *Client) start(ctx context.Context, method, path, accept string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	if id := obs.RequestID(ctx); id != "" {
		req.Header.Set(obs.RequestIDHeader, id)
	}
	obs.InjectTraceContext(ctx, req.Header.Set)
	return c.HTTP.Do(req)
}

// statusError consumes a refused response into a StatusError.
func statusError(method, path string, resp *http.Response) error {
	b, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	var envelope struct {
		Error string `json:"error"`
	}
	msg := strings.TrimSpace(string(b))
	if json.Unmarshal(b, &envelope) == nil && envelope.Error != "" {
		msg = envelope.Error
	}
	return &StatusError{Method: method, Path: path, Code: resp.StatusCode,
		RetryAfter: resp.Header.Get("Retry-After"), Message: msg}
}

// do performs one bounded round trip, decoding a `want` answer into
// out and returning the body verbatim.
func (c *Client) do(ctx context.Context, method, path string, body []byte, want int, out any) ([]byte, error) {
	if c.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, c.Timeout)
		defer cancel()
	}
	resp, err := c.start(ctx, method, path, "", body)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != want {
		return nil, statusError(method, path, resp)
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxBodyBytes))
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return nil, fmt.Errorf("%s %s: bad body: %w", method, path, err)
	}
	return raw, nil
}

// GetJSON fetches one JSON resource of the server into out and also
// returns the body verbatim, so a caller can print exactly what the
// server said instead of a lossy re-marshal.
func (c *Client) GetJSON(ctx context.Context, path string, out any) ([]byte, error) {
	return c.do(ctx, http.MethodGet, path, nil, http.StatusOK, out)
}

// Create submits a simulate- or sweep-form body as a new job.
func (c *Client) Create(ctx context.Context, body []byte) (Created, error) {
	var created Created
	_, err := c.do(ctx, http.MethodPost, "/v1/jobs", body, http.StatusAccepted, &created)
	if err == nil && created.ID == "" {
		err = errors.New("POST /v1/jobs: bad body: no job id")
	}
	return created, err
}

// Status fetches one job's snapshot (with per-cell detail).
func (c *Client) Status(ctx context.Context, id string) (st Status, raw []byte, err error) {
	raw, err = c.GetJSON(ctx, "/v1/jobs/"+id, &st)
	return st, raw, err
}

// List fetches every retained job, oldest first.
func (c *Client) List(ctx context.Context) ([]Status, []byte, error) {
	var list ListResponse
	raw, err := c.GetJSON(ctx, "/v1/jobs", &list)
	return list.Jobs, raw, err
}

// Cancel cancels a job and returns its post-cancel snapshot; canceling
// a terminal job is a no-op, not an error.
func (c *Client) Cancel(ctx context.Context, id string) (Status, error) {
	var st Status
	_, err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, http.StatusOK, &st)
	return st, err
}

// Follow streams the job's events as NDJSON, calling fn for every
// stored frame exactly once, in seq order, through the terminal
// EventDone frame; heartbeats are skipped. A dropped connection
// re-attaches from the last seen seq (the server replays on attach, so
// nothing re-simulates), at most streamReconnects times.
//
// Follow returns nil only once fn has seen the terminal frame. Any
// other return — dead context, reconnect budget spent, the events
// endpoint refusing (*StatusError), an error from fn — means the
// caller is walking away without the result, so the job is canceled
// best-effort first: the server stops simulating for nobody.
func (c *Client) Follow(ctx context.Context, id string, fn func(Event) error) error {
	seen := 0
	var final bool
	var err error
	for attempt := 0; attempt <= streamReconnects && !final && ctx.Err() == nil; attempt++ {
		final, err = c.stream(ctx, id, &seen, fn)
	}
	if !final && ctx.Err() != nil {
		err = ctx.Err()
	}
	if err != nil {
		// The caller's context may be the very thing that died: cancel
		// on a short detached one that keeps its request ID and span.
		cctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), abandonTimeout)
		defer cancel()
		c.Cancel(cctx, id) // best-effort; the error worth reporting is err
	}
	return err
}

// stream attaches to the event stream once, from *seen. final means
// re-attaching is pointless: the terminal frame arrived (err == nil),
// fn aborted, or the server refused the attach.
func (c *Client) stream(ctx context.Context, id string, seen *int, fn func(Event) error) (final bool, err error) {
	path := fmt.Sprintf("/v1/jobs/%s/events?from=%d", id, *seen)
	resp, err := c.start(ctx, http.MethodGet, path, NDJSON, nil)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// 404: the job expired or the server restarted between create
		// and attach — there is nothing to resume.
		return true, statusError(http.MethodGet, path, resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), maxFrameBytes)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return false, fmt.Errorf("job %s: bad event frame: %w", id, err)
		}
		if ev.Type == EventHeartbeat || ev.Seq <= *seen {
			continue // keep-alive, or replay overlap after a reconnect
		}
		*seen = ev.Seq
		if err := fn(ev); err != nil {
			return true, err
		}
		if ev.Type == EventDone {
			// The server ends the stream after this frame; reading its
			// end is what lets the connection serve the next request.
			io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
			return true, nil
		}
	}
	err = sc.Err()
	if err == nil {
		err = io.ErrUnexpectedEOF
	}
	return false, fmt.Errorf("job %s: event stream dropped after seq %d: %w", id, *seen, err)
}
