package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"eole/internal/obs"
)

// client is how the coordinator and RemoteSweep talk to an eoled: a
// worker's probes and dispatches, and a whole sweep posted to one
// server. Every request carries the context's request ID and W3C trace
// context, so a caller's logs and spans line up with the server's.
type client struct {
	base string // the server's base URL ("http://host:8080", no trailing slash)
	http *http.Client
}

// statusError is a well-formed HTTP answer with an unexpected status:
// the server is alive and said no. Transport failures and malformed
// bodies are plain errors, which is how callers tell a refusing server
// from a broken one.
type statusError struct {
	method, path string
	code         int
	retryAfter   string // the raw Retry-After header (429 backpressure)
	message      string // the server's {"error": ...} text, else a body snippet
}

func (e *statusError) Error() string {
	return fmt.Sprintf("%s %s: HTTP %d: %s", e.method, e.path, e.code, e.message)
}

// maxReplyBytes bounds a response body (an assembled trace is the
// largest legitimate one).
const maxReplyBytes = 1 << 26

// do performs one round trip, decoding a 200 answer into out (unless
// out is nil) and returning the body verbatim.
func (c *client) do(ctx context.Context, method, path string, body []byte, out any) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if id := obs.RequestID(ctx); id != "" {
		req.Header.Set(obs.RequestIDHeader, id)
	}
	obs.InjectTraceContext(ctx, req.Header.Set)
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		var envelope struct {
			Error string `json:"error"`
		}
		msg := strings.TrimSpace(string(b))
		if json.Unmarshal(b, &envelope) == nil && envelope.Error != "" {
			msg = envelope.Error
		}
		return nil, &statusError{method: method, path: path, code: resp.StatusCode,
			retryAfter: resp.Header.Get("Retry-After"), message: msg}
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxReplyBytes))
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if out == nil {
		return raw, nil
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return nil, fmt.Errorf("%s %s: bad body: %w", method, path, err)
	}
	return raw, nil
}

// post sends body to path and returns the server's 200 answer
// verbatim, undecoded: the coordinator gates a relayed report's bytes
// itself.
func (c *client) post(ctx context.Context, path string, body []byte) ([]byte, error) {
	return c.do(ctx, http.MethodPost, path, body, nil)
}

// getJSON fetches one JSON resource of the server into out.
func (c *client) getJSON(ctx context.Context, path string, out any) error {
	_, err := c.do(ctx, http.MethodGet, path, nil, out)
	return err
}
