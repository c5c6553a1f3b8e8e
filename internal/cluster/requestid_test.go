package cluster

import (
	"bytes"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"

	"eole/internal/obs"
	"eole/internal/simsvc"
)

// TestRequestIDPropagation: a sweep started under a context carrying a
// request ID must stamp X-Eole-Request-Id on every dispatch, and the
// coordinator's own dispatch log must carry the same ID — the
// cross-process half of end-to-end tracing.
func TestRequestIDPropagation(t *testing.T) {
	sw := newStubWorker(t)
	var mu sync.Mutex
	var headerIDs []string
	// Wrap the stub with a header recorder on the dispatch route.
	base := sw.srv.Config.Handler
	sw.srv.Config.Handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/simulate" {
			mu.Lock()
			headerIDs = append(headerIDs, r.Header.Get(obs.RequestIDHeader))
			mu.Unlock()
		}
		base.ServeHTTP(w, r)
	})

	var logBuf bytes.Buffer
	var logMu sync.Mutex
	logger := slog.New(slog.NewJSONHandler(lockedWriter{&logMu, &logBuf}, &slog.HandlerOptions{Level: slog.LevelDebug}))
	c := testCoordinator(t, Options{Workers: []string{sw.srv.URL}, Logger: logger})

	cfg := namedConfig(t, "EOLE_4_64")
	ctx := obs.WithRequestID(t.Context(), "sweep-abc123")
	if _, err := sweep(ctx, c, []simsvc.Request{req(cfg, "gzip"), req(cfg, "namd")}); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(headerIDs) != 2 {
		t.Fatalf("expected 2 dispatches of one request each, saw %d requests", len(headerIDs))
	}
	for _, id := range headerIDs {
		if id != "sweep-abc123" {
			t.Errorf("dispatch header ID = %q, want sweep-abc123", id)
		}
	}
	logMu.Lock()
	logs := logBuf.String()
	logMu.Unlock()
	if !strings.Contains(logs, `"msg":"cell_dispatch"`) || !strings.Contains(logs, `"request_id":"sweep-abc123"`) {
		t.Errorf("coordinator dispatch log missing request ID:\n%s", logs)
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	b  *bytes.Buffer
}

func (w lockedWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.b.Write(p)
}
