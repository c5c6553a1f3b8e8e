package obs

import (
	"context"
	"sort"
	"strings"
	"sync"
	"time"
)

// Distributed tracing: timed spans assembled into per-request traces.
//
// A Tracer hands out Spans (start/end timestamps, attributes, parent
// links, error status) and keeps a bounded in-memory ring of completed
// traces, grouped by trace ID. Context carries the active span, so a
// span started anywhere downstream of a request handler parents itself
// correctly; across processes the W3C-style `traceparent` header (see
// TraceparentHeader) carries the (trace ID, span ID) pair the same way
// X-Eole-Request-Id already carries the request ID, and Ingest splices
// spans fetched from another process's ring into the local one — which
// is how a coordinator assembles one cross-process waterfall from its
// workers.
//
// Everything is nil-safe: a nil *Tracer returns nil Spans and every
// Span method on nil is a no-op, so instrumented code paths cost one
// pointer test when tracing is disabled. Spans are per-phase (queue
// wait, warm, detailed run, dispatch attempt) — never per-µ-op — so
// the simulation hot loop is untouched.

// TraceparentHeader carries the span context across processes in the
// W3C Trace Context format: 00-<32 hex trace id>-<16 hex span id>-<2
// hex flags>. The cluster coordinator stamps it on every dispatch next
// to X-Eole-Request-Id; AccessLog adopts a valid incoming value so the
// worker's spans join the coordinator's trace.
const TraceparentHeader = "traceparent"

// TraceResponseHeader echoes the request's trace ID on the response,
// so a client can fetch the assembled trace from /v1/debug/traces
// without guessing.
const TraceResponseHeader = "X-Eole-Trace-Id"

// DefaultTraceRing is the completed-trace retention applied when
// NewTracer is given a non-positive bound.
const DefaultTraceRing = 256

// maxSpansPerTrace bounds one trace's span list: a single trace ID is
// remote-influenced input (traceparent), and an unbounded list would
// let one long-lived trace pin arbitrary memory. Spans past the bound
// are counted, not stored.
const maxSpansPerTrace = 4096

// SpanContext is the cross-process identity of a span: which trace it
// belongs to and which span is the parent of remote children.
type SpanContext struct {
	TraceID string // 32 lowercase hex characters
	SpanID  string // 16 lowercase hex characters
}

// Valid reports whether both IDs have the right shape and are nonzero.
func (sc SpanContext) Valid() bool {
	return validHexID(sc.TraceID, 32) && validHexID(sc.SpanID, 16)
}

// Traceparent renders the context as a traceparent header value
// (version 00, sampled flag set).
func (sc SpanContext) Traceparent() string {
	return "00-" + sc.TraceID + "-" + sc.SpanID + "-01"
}

// ParseTraceparent parses a traceparent header value strictly:
// version-format 00-traceid-spanid-flags with lowercase hex fields and
// nonzero IDs. Garbage (wrong length, uppercase, all-zero IDs, the
// reserved version ff) is rejected — the header is remote input.
func ParseTraceparent(s string) (SpanContext, bool) {
	if len(s) != 55 || s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return SpanContext{}, false
	}
	ver, traceID, spanID, flags := s[0:2], s[3:35], s[36:52], s[53:55]
	if !hexLower(ver) || !hexLower(flags) || ver == "ff" {
		return SpanContext{}, false
	}
	sc := SpanContext{TraceID: traceID, SpanID: spanID}
	if !sc.Valid() {
		return SpanContext{}, false
	}
	return sc, true
}

// validHexID reports whether s is exactly n lowercase hex characters
// and not all zeros.
func validHexID(s string, n int) bool {
	if len(s) != n || !hexLower(s) {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] != '0' {
			return true
		}
	}
	return false
}

func hexLower(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// NewTraceID returns a fresh 32-hex-character trace ID.
func NewTraceID() string { return NewRequestID() + NewRequestID() }

// NewSpanID returns a fresh 16-hex-character span ID.
func NewSpanID() string { return NewRequestID() }

// SpanData is one completed (or in-flight) span on the wire: the JSON
// shape served by /v1/debug/traces and spliced between processes.
type SpanData struct {
	TraceID  string `json:"trace_id"`
	SpanID   string `json:"span_id"`
	ParentID string `json:"parent_id,omitempty"`
	Name     string `json:"name"`
	// Service identifies the process that produced the span (e.g.
	// "eoled@:8181"), so a cross-process waterfall shows where each
	// phase ran.
	Service     string            `json:"service,omitempty"`
	StartUnixNS int64             `json:"start_unix_ns"`
	EndUnixNS   int64             `json:"end_unix_ns"`
	Attrs       map[string]string `json:"attrs,omitempty"`
	Error       string            `json:"error,omitempty"`
}

// Duration is the span's wall-clock length.
func (d SpanData) Duration() time.Duration {
	return time.Duration(d.EndUnixNS - d.StartUnixNS)
}

// Detail flattens the span's attributes (sorted by key, for
// deterministic rendering) and error into one "k=v ..." line — the
// note column of `eolectl trace` and the SVG timeline's tooltip text.
func (d SpanData) Detail() string {
	keys := make([]string, 0, len(d.Attrs))
	for k := range d.Attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys)+1)
	for _, k := range keys {
		parts = append(parts, k+"="+d.Attrs[k])
	}
	if d.Error != "" {
		parts = append(parts, "error="+d.Error)
	}
	return strings.Join(parts, " ")
}

// Trace is one assembled trace: every completed span sharing a trace
// ID, in completion order, plus the request ID that produced it.
type Trace struct {
	TraceID   string `json:"trace_id"`
	RequestID string `json:"request_id,omitempty"`
	// Dropped counts spans discarded once the per-trace bound was hit.
	Dropped int        `json:"dropped,omitempty"`
	Spans   []SpanData `json:"spans"`
}

// TraceSummary is one ring entry in the /v1/debug/traces listing.
type TraceSummary struct {
	TraceID     string `json:"trace_id"`
	RequestID   string `json:"request_id,omitempty"`
	Root        string `json:"root"` // root span name ("" when the root has not ended)
	StartUnixNS int64  `json:"start_unix_ns"`
	DurationNS  int64  `json:"duration_ns"`
	Spans       int    `json:"spans"`
}

// TraceNode is one row of a trace rendered as a tree: the span plus
// its depth below the root. Roots (spans whose parent is absent from
// the trace, e.g. a remote parent) have depth 0.
type TraceNode struct {
	Span  SpanData
	Depth int
}

// Ordered flattens the trace into depth-first tree order: roots by
// start time, children of each span by start time (span ID breaks
// ties), each child one level deeper. Spans whose parent is missing
// from the trace — the coordinator-side parent of a spliced worker
// span before the splice, say — surface as roots rather than being
// dropped.
func (tr Trace) Ordered() []TraceNode {
	children := make(map[string][]SpanData, len(tr.Spans))
	present := make(map[string]bool, len(tr.Spans))
	for _, sp := range tr.Spans {
		present[sp.SpanID] = true
	}
	var roots []SpanData
	for _, sp := range tr.Spans {
		if sp.ParentID != "" && present[sp.ParentID] {
			children[sp.ParentID] = append(children[sp.ParentID], sp)
		} else {
			roots = append(roots, sp)
		}
	}
	byStart := func(s []SpanData) {
		sort.Slice(s, func(a, b int) bool {
			if s[a].StartUnixNS != s[b].StartUnixNS {
				return s[a].StartUnixNS < s[b].StartUnixNS
			}
			return s[a].SpanID < s[b].SpanID
		})
	}
	byStart(roots)
	out := make([]TraceNode, 0, len(tr.Spans))
	var walk func(sp SpanData, depth int)
	walk = func(sp SpanData, depth int) {
		out = append(out, TraceNode{Span: sp, Depth: depth})
		kids := children[sp.SpanID]
		byStart(kids)
		for _, k := range kids {
			walk(k, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
	return out
}

// Span is one in-flight timed operation. Create with Tracer.StartSpan,
// finish with End (idempotent); SetAttr and SetError annotate it.
// All methods are safe on a nil *Span — the disabled-tracing case.
type Span struct {
	tracer    *Tracer
	requestID string

	mu    sync.Mutex
	data  SpanData
	ended bool
}

// Context returns the span's cross-process identity (zero when nil).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.data.TraceID, SpanID: s.data.SpanID}
}

// SetAttr annotates the span. No-op after End.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		if s.data.Attrs == nil {
			s.data.Attrs = make(map[string]string, 4)
		}
		s.data.Attrs[key] = value
	}
	s.mu.Unlock()
}

// SetError marks the span failed with the error's message. A nil
// error is a no-op, so callers can pass their result unconditionally.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.data.Error = err.Error()
	}
	s.mu.Unlock()
}

// End stamps the end time and publishes the span into its tracer's
// ring. Idempotent; only the first End records.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.data.EndUnixNS = time.Now().UnixNano()
	d := s.data
	s.mu.Unlock()
	s.tracer.record(d, s.requestID)
	if fn := s.tracer.hookFn(); fn != nil {
		fn(d)
	}
}

// spanKey carries the active *Span; remoteKey carries a parsed remote
// SpanContext (an incoming traceparent) for the next StartSpan to
// adopt.
type (
	spanKey   struct{}
	remoteKey struct{}
)

// ContextWithSpan returns a context carrying the span, which becomes
// the parent of spans started from the context. Nil spans pass the
// context through untouched. A span reference stays valid as a parent
// after End — only its IDs are read — which is how a simulation's
// detached run context keeps its first waiter's request as the trace
// root.
func ContextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, sp)
}

// SpanFrom returns the context's active span (nil when none).
func SpanFrom(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// ContextWithRemoteSpan returns a context carrying a remote parent
// span context (typically parsed from an incoming traceparent). The
// next StartSpan with no local parent joins that trace.
func ContextWithRemoteSpan(ctx context.Context, sc SpanContext) context.Context {
	if !sc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, remoteKey{}, sc)
}

func remoteFrom(ctx context.Context) SpanContext {
	sc, _ := ctx.Value(remoteKey{}).(SpanContext)
	return sc
}

// InjectTraceContext stamps the context's active span as a traceparent
// header on an outbound request, next to the request ID the caller
// already stamps. No-op without an active span.
func InjectTraceContext(ctx context.Context, set func(key, value string)) {
	if sp := SpanFrom(ctx); sp != nil {
		set(TraceparentHeader, sp.Context().Traceparent())
	}
}

// traceEntry is one ring slot: the completed spans of a trace ID plus
// the span-ID set that dedupes re-Ingested splices.
type traceEntry struct {
	requestID string
	spans     []SpanData
	seen      map[string]struct{}
	dropped   int
}

// Tracer mints spans and retains the most recent completed traces in a
// bounded FIFO ring. A nil *Tracer is the disabled state: StartSpan
// returns a nil span and every query returns nothing.
type Tracer struct {
	service string
	max     int

	mu     sync.Mutex
	traces map[string]*traceEntry
	order  []string // trace IDs, oldest first
	hook   func(SpanData)
}

// NewTracer builds a tracer whose spans carry the given service
// identity, retaining up to maxTraces completed traces (non-positive =
// DefaultTraceRing).
func NewTracer(service string, maxTraces int) *Tracer {
	if maxTraces <= 0 {
		maxTraces = DefaultTraceRing
	}
	return &Tracer{service: service, max: maxTraces, traces: make(map[string]*traceEntry)}
}

// OnSpanEnd installs a callback invoked with every span this process
// completes (not spliced ones) — the hook behind span-derived metrics
// such as eoled's queue-wait histogram. Install before serving; the
// callback must not call back into the tracer's span API.
func (t *Tracer) OnSpanEnd(fn func(SpanData)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.hook = fn
	t.mu.Unlock()
}

func (t *Tracer) hookFn() func(SpanData) {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	fn := t.hook
	t.mu.Unlock()
	return fn
}

// StartSpan starts a span named name and returns a context carrying it
// as the parent for downstream spans. Parentage: the context's active
// span first, else a remote span context (incoming traceparent), else
// the span roots a fresh trace. The context's request ID is captured
// so the assembled trace is addressable by request ID too. On a nil
// tracer the context passes through and the span is nil.
func (t *Tracer) StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	sp := &Span{tracer: t, requestID: RequestID(ctx)}
	sp.data.Name = name
	sp.data.Service = t.service
	sp.data.SpanID = NewSpanID()
	if parent := SpanFrom(ctx); parent != nil {
		pc := parent.Context()
		sp.data.TraceID, sp.data.ParentID = pc.TraceID, pc.SpanID
	} else if rc := remoteFrom(ctx); rc.Valid() {
		sp.data.TraceID, sp.data.ParentID = rc.TraceID, rc.SpanID
	} else {
		sp.data.TraceID = NewTraceID()
	}
	sp.data.StartUnixNS = time.Now().UnixNano()
	return ContextWithSpan(ctx, sp), sp
}

// record files one completed span into the ring.
func (t *Tracer) record(d SpanData, requestID string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.entryLocked(d.TraceID)
	if e.requestID == "" {
		e.requestID = requestID
	}
	t.addLocked(e, d)
}

// Ingest splices spans collected in another process (a worker's ring,
// fetched over HTTP) into the local ring, deduplicating by span ID so
// repeated splices of the same worker are idempotent. Spans whose
// trace ID is malformed are dropped — the payload is remote input.
func (t *Tracer) Ingest(spans []SpanData, requestID string) {
	if t == nil || len(spans) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, d := range spans {
		if !validHexID(d.TraceID, 32) || !validHexID(d.SpanID, 16) {
			continue
		}
		e := t.entryLocked(d.TraceID)
		if e.requestID == "" {
			e.requestID = requestID
		}
		t.addLocked(e, d)
	}
}

// entryLocked returns (creating and evicting as needed) the ring entry
// for a trace ID. Requires t.mu.
func (t *Tracer) entryLocked(traceID string) *traceEntry {
	e := t.traces[traceID]
	if e == nil {
		e = &traceEntry{seen: make(map[string]struct{}, 8)}
		t.traces[traceID] = e
		t.order = append(t.order, traceID)
		for len(t.order) > t.max {
			victim := t.order[0]
			t.order = t.order[1:]
			delete(t.traces, victim)
		}
	}
	return e
}

// addLocked appends one span to an entry, deduplicating by span ID and
// enforcing the per-trace bound. Requires t.mu.
func (t *Tracer) addLocked(e *traceEntry, d SpanData) {
	if _, dup := e.seen[d.SpanID]; dup {
		return
	}
	if len(e.spans) >= maxSpansPerTrace {
		e.dropped++
		return
	}
	e.seen[d.SpanID] = struct{}{}
	e.spans = append(e.spans, d)
}

// Trace returns the assembled trace for an ID (false when the ring
// does not hold it). The returned span slice is a copy.
func (t *Tracer) Trace(traceID string) (Trace, bool) {
	if t == nil {
		return Trace{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	e := t.traces[traceID]
	if e == nil {
		return Trace{}, false
	}
	return t.assembleLocked(traceID, e), true
}

// TraceByRequestID returns the newest trace whose request ID matches.
func (t *Tracer) TraceByRequestID(requestID string) (Trace, bool) {
	if t == nil || requestID == "" {
		return Trace{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := len(t.order) - 1; i >= 0; i-- {
		id := t.order[i]
		if e := t.traces[id]; e != nil && e.requestID == requestID {
			return t.assembleLocked(id, e), true
		}
	}
	return Trace{}, false
}

func (t *Tracer) assembleLocked(traceID string, e *traceEntry) Trace {
	return Trace{
		TraceID:   traceID,
		RequestID: e.requestID,
		Dropped:   e.dropped,
		Spans:     append([]SpanData(nil), e.spans...),
	}
}

// Summaries lists the retained traces, newest first.
func (t *Tracer) Summaries() []TraceSummary {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceSummary, 0, len(t.order))
	for i := len(t.order) - 1; i >= 0; i-- {
		id := t.order[i]
		e := t.traces[id]
		if e == nil {
			continue
		}
		out = append(out, summarize(id, e))
	}
	return out
}

// summarize computes one listing row: the trace's wall-clock envelope
// and its root span's name (the earliest span without an in-trace
// parent).
func summarize(traceID string, e *traceEntry) TraceSummary {
	s := TraceSummary{TraceID: traceID, RequestID: e.requestID, Spans: len(e.spans)}
	var minStart, maxEnd int64
	var root *SpanData
	for i := range e.spans {
		sp := &e.spans[i]
		if minStart == 0 || sp.StartUnixNS < minStart {
			minStart = sp.StartUnixNS
		}
		if sp.EndUnixNS > maxEnd {
			maxEnd = sp.EndUnixNS
		}
		if sp.ParentID != "" {
			if _, ok := e.seen[sp.ParentID]; ok {
				continue
			}
		}
		if root == nil || sp.StartUnixNS < root.StartUnixNS {
			root = sp
		}
	}
	if root != nil {
		s.Root = root.Name
	}
	s.StartUnixNS = minStart
	if maxEnd > minStart {
		s.DurationNS = maxEnd - minStart
	}
	return s
}

// SlowestSpans returns up to n completed spans of a trace, slowest
// first, excluding the given span ID (the root, for slow-request
// escalation: the root's duration is the request's, so listing it
// would be noise).
func (t *Tracer) SlowestSpans(traceID, exclude string, n int) []SpanData {
	if t == nil || n <= 0 {
		return nil
	}
	t.mu.Lock()
	e := t.traces[traceID]
	var spans []SpanData
	if e != nil {
		spans = append(spans, e.spans...)
	}
	t.mu.Unlock()
	var kept []SpanData
	for _, sp := range spans {
		if sp.SpanID != exclude {
			kept = append(kept, sp)
		}
	}
	sort.Slice(kept, func(a, b int) bool {
		da, db := kept[a].Duration(), kept[b].Duration()
		if da != db {
			return da > db
		}
		return kept[a].SpanID < kept[b].SpanID
	})
	if len(kept) > n {
		kept = kept[:n]
	}
	return kept
}

// Len reports how many traces the ring currently holds.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.traces)
}
