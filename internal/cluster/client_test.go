package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"eole/internal/obs"
)

// TestClientResources: a 200 is decoded and also handed back verbatim;
// a refusal is a statusError carrying the code, Retry-After and the
// server's message; a truncated body, a dead server and a malformed
// base URL are plain errors.
func TestClientResources(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/stats":
			fmt.Fprint(w, `{"version":"x","sims_run":3}`)
		case "/v1/simulate":
			w.Header().Set("Retry-After", "7")
			http.Error(w, "queue full, plain text", http.StatusTooManyRequests)
		case "/v1/truncated":
			fmt.Fprint(w, `{"version":`)
		default:
			w.WriteHeader(http.StatusNotFound)
			fmt.Fprint(w, `{"error":"no such thing"}`)
		}
	}))
	defer srv.Close()
	c := &client{base: srv.URL, http: srv.Client()}
	ctx := context.Background()

	var st struct {
		SimsRun int `json:"sims_run"`
	}
	if err := c.getJSON(ctx, "/v1/stats", &st); err != nil || st.SimsRun != 3 {
		t.Errorf("getJSON = %+v, %v", st, err)
	}
	var se *statusError
	_, err := c.post(ctx, "/v1/simulate", []byte(`{}`))
	if !errors.As(err, &se) || se.code != http.StatusTooManyRequests || se.retryAfter != "7" ||
		se.message != "queue full, plain text" {
		t.Errorf("post on a saturated server: err = %v (%+v)", err, se)
	}
	if _, err := c.post(ctx, "/v1/nope", nil); err == nil || err.Error() != "POST /v1/nope: HTTP 404: no such thing" {
		t.Errorf("post(nope) err = %v", err)
	}
	if err := c.getJSON(ctx, "/v1/truncated", &st); err == nil || errors.As(err, &se) {
		t.Errorf("truncated body: err = %v, want a plain decode error", err)
	}
	dead := &client{base: "http://127.0.0.1:1", http: &http.Client{}}
	if _, err := dead.post(ctx, "/v1/simulate", []byte(`{}`)); err == nil || errors.As(err, &se) {
		t.Errorf("dead server: err = %v, want a transport error", err)
	}
	if err := (&client{base: "http://bad url", http: &http.Client{}}).getJSON(ctx, "/v1/stats", &st); err == nil {
		t.Error("malformed base URL accepted")
	}
}

// TestClientStampsContext: the context's request ID and span ride every
// request.
func TestClientStampsContext(t *testing.T) {
	var headers []http.Header
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		headers = append(headers, r.Header.Clone())
		fmt.Fprint(w, `{}`)
	}))
	defer srv.Close()
	c := &client{base: srv.URL, http: srv.Client()}
	tracer := obs.NewTracer("test", 4)
	ctx, sp := tracer.StartSpan(obs.WithRequestID(context.Background(), "rid-1"), "dispatch")
	defer sp.End()
	if _, err := c.post(ctx, "/v1/simulate", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	var out struct{}
	if err := c.getJSON(ctx, "/v1/healthz", &out); err != nil {
		t.Fatal(err)
	}
	if len(headers) != 2 {
		t.Fatalf("%d requests, want post + get", len(headers))
	}
	for i, h := range headers {
		if h.Get(obs.RequestIDHeader) != "rid-1" {
			t.Errorf("request %d: request ID %q", i, h.Get(obs.RequestIDHeader))
		}
		if sc, ok := obs.ParseTraceparent(h.Get("traceparent")); !ok || sc.TraceID != sp.Context().TraceID {
			t.Errorf("request %d: traceparent %q does not continue the span's trace", i, h.Get("traceparent"))
		}
	}
	if ct := headers[0].Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Errorf("post Content-Type %q", ct)
	}
}
