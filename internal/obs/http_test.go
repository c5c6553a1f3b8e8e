package obs

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestAccessLogGeneratesID(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	var seen string
	h := AccessLog(logger, AccessLogOptions{}, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = RequestID(r.Context())
		w.WriteHeader(http.StatusTeapot)
		_, _ = w.Write([]byte("short and stout"))
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/simulate", nil))

	if !ValidRequestID(seen) {
		t.Fatalf("handler saw invalid request ID %q", seen)
	}
	if got := rec.Header().Get(RequestIDHeader); got != seen {
		t.Errorf("response header %q != context ID %q", got, seen)
	}
	var line map[string]any
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("access log is not one JSON line: %v\n%s", err, buf.String())
	}
	if line["request_id"] != seen {
		t.Errorf("log request_id = %v, want %q", line["request_id"], seen)
	}
	if line["status"] != float64(http.StatusTeapot) {
		t.Errorf("log status = %v", line["status"])
	}
	if line["bytes"] != float64(len("short and stout")) {
		t.Errorf("log bytes = %v", line["bytes"])
	}
	if line["path"] != "/v1/simulate" {
		t.Errorf("log path = %v", line["path"])
	}
}

func TestAccessLogAdoptsValidID(t *testing.T) {
	logger := slog.New(slog.NewTextHandler(&bytes.Buffer{}, nil))
	var seen string
	h := AccessLog(logger, AccessLogOptions{}, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = RequestID(r.Context())
	}))
	req := httptest.NewRequest("GET", "/", nil)
	req.Header.Set(RequestIDHeader, "sweep-1234.abc")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if seen != "sweep-1234.abc" {
		t.Errorf("valid incoming ID not adopted: %q", seen)
	}
	if got := rec.Header().Get(RequestIDHeader); got != "sweep-1234.abc" {
		t.Errorf("incoming ID not echoed: %q", got)
	}
}

func TestAccessLogRejectsHostileID(t *testing.T) {
	logger := slog.New(slog.NewTextHandler(&bytes.Buffer{}, nil))
	var seen string
	h := AccessLog(logger, AccessLogOptions{}, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		seen = RequestID(r.Context())
	}))
	for _, hostile := range []string{"", "has space", "x\ny", strings.Repeat("a", 65)} {
		req := httptest.NewRequest("GET", "/", nil)
		req.Header.Set(RequestIDHeader, hostile)
		h.ServeHTTP(httptest.NewRecorder(), req)
		if seen == hostile || !ValidRequestID(seen) {
			t.Errorf("hostile ID %q adopted or replacement invalid (%q)", hostile, seen)
		}
	}
}

func TestAccessLogDefaultStatus(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	// Handler writes nothing: status must default to 200.
	h := AccessLog(logger, AccessLogOptions{}, http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
	var line map[string]any
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatal(err)
	}
	if line["status"] != float64(200) {
		t.Errorf("default status = %v, want 200", line["status"])
	}
}

func TestAccessLogWithTracing(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	tr := NewTracer("test", 8)
	var childID string
	h := AccessLog(logger, AccessLogOptions{Tracer: tr, SlowRequest: time.Nanosecond},
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			_, sp := tr.StartSpan(r.Context(), "work")
			childID = sp.Context().SpanID
			time.Sleep(time.Millisecond)
			sp.End()
		}))

	// An incoming traceparent is adopted: the root span joins that trace.
	remote := SpanContext{TraceID: strings.Repeat("ab", 16), SpanID: strings.Repeat("cd", 8)}
	req := httptest.NewRequest("POST", "/v1/sweep", nil)
	req.Header.Set(TraceparentHeader, remote.Traceparent())
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)

	if got := rec.Header().Get(TraceResponseHeader); got != remote.TraceID {
		t.Fatalf("trace response header = %q, want %q", got, remote.TraceID)
	}
	trace, ok := tr.Trace(remote.TraceID)
	if !ok {
		t.Fatalf("adopted trace not recorded")
	}
	var root, child *SpanData
	for i := range trace.Spans {
		switch trace.Spans[i].Name {
		case "http.request":
			root = &trace.Spans[i]
		case "work":
			child = &trace.Spans[i]
		}
	}
	if root == nil || child == nil {
		t.Fatalf("missing spans: %+v", trace.Spans)
	}
	if root.ParentID != remote.SpanID {
		t.Errorf("root not parented on remote span: %q", root.ParentID)
	}
	if child.ParentID != root.SpanID || child.SpanID != childID {
		t.Errorf("handler span not parented on root: %+v", child)
	}
	if root.Attrs["method"] != "POST" || root.Attrs["path"] != "/v1/sweep" || root.Attrs["status"] != "200" {
		t.Errorf("root attrs = %v", root.Attrs)
	}

	// The 1ns threshold means every request escalates: expect a WARN
	// line naming the trace and the slow child span.
	var warn map[string]any
	for _, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("bad log line %q: %v", line, err)
		}
		if m["msg"] == "slow_request" {
			warn = m
		}
	}
	if warn == nil {
		t.Fatalf("no slow_request line in:\n%s", buf.String())
	}
	if warn["level"] != "WARN" || warn["trace_id"] != remote.TraceID {
		t.Errorf("slow_request line = %v", warn)
	}
	if s, _ := warn["slowest_spans"].(string); !strings.Contains(s, "work=") {
		t.Errorf("slowest_spans = %q, want to mention work", s)
	}
}

func TestAccessLogWithGarbageTraceparent(t *testing.T) {
	logger := slog.New(slog.NewTextHandler(&bytes.Buffer{}, nil))
	tr := NewTracer("test", 8)
	h := AccessLog(logger, AccessLogOptions{Tracer: tr},
		http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	for _, hostile := range []string{"", "garbage", "00-zzzz-1234-01"} {
		req := httptest.NewRequest("GET", "/", nil)
		if hostile != "" {
			req.Header.Set(TraceparentHeader, hostile)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		id := rec.Header().Get(TraceResponseHeader)
		if !validHexID(id, 32) {
			t.Fatalf("traceparent %q: response trace id %q invalid", hostile, id)
		}
		if tr2, ok := tr.Trace(id); !ok || tr2.Spans[0].ParentID != "" {
			t.Fatalf("traceparent %q: root not a fresh trace root", hostile)
		}
	}
}

func TestRequestIDContext(t *testing.T) {
	ctx := WithRequestID(t.Context(), "abc123")
	if got := RequestID(ctx); got != "abc123" {
		t.Errorf("RequestID = %q", got)
	}
	if got := RequestID(t.Context()); got != "" {
		t.Errorf("empty context returned %q", got)
	}
}

func TestNewRequestID(t *testing.T) {
	a, b := NewRequestID(), NewRequestID()
	if !ValidRequestID(a) || !ValidRequestID(b) {
		t.Fatalf("generated IDs invalid: %q %q", a, b)
	}
	if a == b {
		t.Fatalf("two generated IDs collided: %q", a)
	}
}

func TestItoa(t *testing.T) {
	for _, tc := range []struct {
		v    int
		want string
	}{{200, "200"}, {418, "418"}, {99, "99"}, {1000, "1000"}, {0, "0"}, {-5, "0"}} {
		if got := itoa(tc.v); got != tc.want {
			t.Errorf("itoa(%d) = %q, want %q", tc.v, got, tc.want)
		}
	}
}
