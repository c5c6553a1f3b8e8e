package obs

import (
	"log/slog"
	"net/http"
	"strings"
	"time"
)

// statusWriter records the status code and response size for the
// access log.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// AccessLogOptions configures AccessLog's tracing; the zero value
// logs without it.
type AccessLogOptions struct {
	// Tracer, when set, wraps every request in an "http.request" root
	// span: a valid incoming traceparent header is adopted (so a
	// worker's spans join the coordinator's trace), the trace ID is
	// echoed on the X-Eole-Trace-Id response header, and the span is
	// available to handlers through the request context.
	Tracer *Tracer
	// SlowRequest escalates requests whose root span outlives the
	// threshold to a WARN log carrying the trace ID and the top-3
	// slowest child spans inline. Zero disables escalation.
	SlowRequest time.Duration
}

// AccessLog wraps a handler with request-ID management and one
// structured log line per request. A valid incoming X-Eole-Request-Id
// is adopted (so coordinator-stamped dispatches trace through the
// worker's logs); otherwise a fresh ID is generated. The ID is stored
// in the request context, echoed on the response header, and logged
// with method, path, status, response bytes, duration and remote
// address. Raw paths are safe in log lines (unlike metric labels,
// which must use route patterns). opts adds per-request root spans
// and slow-request escalation.
func AccessLog(logger *slog.Logger, opts AccessLogOptions, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(RequestIDHeader)
		if !ValidRequestID(id) {
			id = NewRequestID()
		}
		ctx := WithRequestID(r.Context(), id)
		w.Header().Set(RequestIDHeader, id)
		var sp *Span
		if opts.Tracer != nil {
			if rc, ok := ParseTraceparent(r.Header.Get(TraceparentHeader)); ok {
				ctx = ContextWithRemoteSpan(ctx, rc)
			}
			ctx, sp = opts.Tracer.StartSpan(ctx, "http.request")
			sp.SetAttr("method", r.Method)
			sp.SetAttr("path", r.URL.Path)
			w.Header().Set(TraceResponseHeader, sp.Context().TraceID)
		}
		r = r.WithContext(ctx)
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		dur := time.Since(start)
		if sp != nil {
			sp.SetAttr("status", itoa(sw.status))
			sp.End()
		}
		logger.Info("http_request",
			"request_id", id,
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"bytes", sw.bytes,
			"duration_ms", float64(dur.Microseconds())/1000.0,
			"remote", r.RemoteAddr,
		)
		if sp != nil && opts.SlowRequest > 0 && dur >= opts.SlowRequest {
			sc := sp.Context()
			logger.Warn("slow_request",
				"request_id", id,
				"trace_id", sc.TraceID,
				"method", r.Method,
				"path", r.URL.Path,
				"duration_ms", float64(dur.Microseconds())/1000.0,
				"slowest_spans", slowSpanSummary(opts.Tracer, sc, 3),
			)
		}
	})
}

// slowSpanSummary renders the top-n slowest completed child spans of a
// trace as "name=duration" pairs for the slow_request WARN line.
func slowSpanSummary(t *Tracer, sc SpanContext, n int) string {
	spans := t.SlowestSpans(sc.TraceID, sc.SpanID, n)
	if len(spans) == 0 {
		return ""
	}
	parts := make([]string, 0, len(spans))
	for _, sp := range spans {
		parts = append(parts, sp.Name+"="+sp.Duration().Round(time.Millisecond).String())
	}
	return strings.Join(parts, ",")
}

// itoa formats small positive ints without strconv's allocation for
// the common three-digit status codes.
func itoa(v int) string {
	if v >= 100 && v < 1000 {
		return string([]byte{byte('0' + v/100), byte('0' + v/10%10), byte('0' + v%10)})
	}
	buf := [8]byte{}
	i := len(buf)
	if v <= 0 {
		return "0"
	}
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
