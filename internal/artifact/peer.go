package artifact

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
)

// Peer is the remote tier of the fabric: typically another eoled's
// /v1/artifacts endpoint (the cluster coordinator, for workers).
// Fetch returns ErrNotFound (possibly wrapped) when the peer does not
// hold the key.
type Peer interface {
	Fetch(ctx context.Context, kind Kind, key string) ([]byte, error)
	Push(ctx context.Context, kind Kind, key string, data []byte) error
}

// HTTPPeer fetches and pushes artifacts over eoled's
// GET/PUT /v1/artifacts/{kind}/{key}.
type HTTPPeer struct {
	// BaseURL is the peer's base ("http://coordinator:8080"); a bare
	// host:port gets the http scheme.
	BaseURL string
	// Client issues the requests (nil = http.DefaultClient).
	Client *http.Client
}

// NewHTTPPeer normalizes the base URL into a peer client.
func NewHTTPPeer(baseURL string) *HTTPPeer {
	baseURL = strings.TrimSpace(baseURL)
	if baseURL != "" && !strings.Contains(baseURL, "://") {
		baseURL = "http://" + baseURL
	}
	return &HTTPPeer{BaseURL: strings.TrimRight(baseURL, "/")}
}

func (p *HTTPPeer) client() *http.Client {
	if p.Client != nil {
		return p.Client
	}
	return http.DefaultClient
}

func (p *HTTPPeer) url(kind Kind, key string) string {
	return fmt.Sprintf("%s/v1/artifacts/%s/%s", p.BaseURL, string(kind), key)
}

// Fetch GETs one artifact; a 404 is ErrNotFound, anything but a 200
// is an error carrying the peer's message.
func (p *HTTPPeer) Fetch(ctx context.Context, kind Kind, key string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, p.url(kind, key), nil)
	if err != nil {
		return nil, err
	}
	resp, err := p.client().Do(req)
	if err != nil {
		return nil, fmt.Errorf("artifact: peer %s: %w", p.BaseURL, err)
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		b, err := ReadAllLimited(resp.Body, MaxArtifactBytes)
		if err != nil {
			return nil, fmt.Errorf("artifact: peer %s: %w", p.BaseURL, err)
		}
		return b, nil
	case http.StatusNotFound:
		// Read the small error body out, so the connection is reused:
		// a miss is the common answer.
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("artifact: peer %s: %w", p.BaseURL, ErrNotFound)
	default:
		return nil, fmt.Errorf("artifact: peer %s: status %d: %s",
			p.BaseURL, resp.StatusCode, peerErrorBody(resp.Body))
	}
}

// Push PUTs one artifact; 2xx statuses succeed.
func (p *HTTPPeer) Push(ctx context.Context, kind Kind, key string, data []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, p.url(kind, key), bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := p.client().Do(req)
	if err != nil {
		return fmt.Errorf("artifact: peer %s: %w", p.BaseURL, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return fmt.Errorf("artifact: peer %s: status %d: %s",
			p.BaseURL, resp.StatusCode, peerErrorBody(resp.Body))
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	return nil
}

// peerErrorBody extracts eoled's {"error": "..."} message, falling
// back to a body snippet.
func peerErrorBody(r io.Reader) string {
	b, _ := io.ReadAll(io.LimitReader(r, 4096))
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(b, &e) == nil && e.Error != "" {
		return e.Error
	}
	return strings.TrimSpace(string(b))
}
