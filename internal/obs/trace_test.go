package obs

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	ctx, sp := tr.StartSpan(context.Background(), "noop")
	if sp != nil {
		t.Fatalf("nil tracer returned non-nil span")
	}
	if SpanFrom(ctx) != nil {
		t.Fatalf("nil tracer mutated context")
	}
	// Every method on a nil span must be safe.
	sp.SetAttr("k", "v")
	sp.SetError(errors.New("boom"))
	sp.End()
	sp.End()
	if got := sp.Context(); got.Valid() {
		t.Fatalf("nil span has valid context: %+v", got)
	}
	if tr.Summaries() != nil {
		t.Fatalf("nil tracer returned summaries")
	}
	if _, ok := tr.Trace("x"); ok {
		t.Fatalf("nil tracer returned a trace")
	}
	if tr.Len() != 0 {
		t.Fatalf("nil tracer Len != 0")
	}
	tr.OnSpanEnd(func(SpanData) {})
	tr.Ingest([]SpanData{{TraceID: strings.Repeat("a", 32), SpanID: strings.Repeat("b", 16)}}, "")
}

func TestSpanLifecycleAndParenting(t *testing.T) {
	tr := NewTracer("svc", 8)
	ctx := WithRequestID(context.Background(), "req-1")
	ctx, root := tr.StartSpan(ctx, "root")
	root.SetAttr("method", "GET")
	_, child := tr.StartSpan(ctx, "child")
	child.SetError(errors.New("broken"))
	child.End()
	root.End()
	// End is idempotent: a second End must not duplicate the span.
	root.End()

	rc := root.Context()
	if !rc.Valid() {
		t.Fatalf("root span context invalid: %+v", rc)
	}
	got, ok := tr.Trace(rc.TraceID)
	if !ok {
		t.Fatalf("trace %q not retained", rc.TraceID)
	}
	if got.RequestID != "req-1" {
		t.Fatalf("request id = %q, want req-1", got.RequestID)
	}
	if len(got.Spans) != 2 {
		t.Fatalf("got %d spans, want 2: %+v", len(got.Spans), got.Spans)
	}
	byName := map[string]SpanData{}
	for _, sp := range got.Spans {
		byName[sp.Name] = sp
	}
	r, c := byName["root"], byName["child"]
	if r.ParentID != "" {
		t.Fatalf("root has parent %q", r.ParentID)
	}
	if c.ParentID != r.SpanID || c.TraceID != r.TraceID {
		t.Fatalf("child not parented under root: %+v vs %+v", c, r)
	}
	if r.Attrs["method"] != "GET" {
		t.Fatalf("root attrs = %v", r.Attrs)
	}
	if c.Error != "broken" {
		t.Fatalf("child error = %q", c.Error)
	}
	if c.EndUnixNS < c.StartUnixNS {
		t.Fatalf("child ends before it starts: %+v", c)
	}

	// Mutations after End are dropped.
	root.SetAttr("late", "x")
	got, _ = tr.Trace(rc.TraceID)
	for _, sp := range got.Spans {
		if sp.Attrs["late"] != "" {
			t.Fatalf("attr recorded after End: %+v", sp)
		}
	}

	if _, ok := tr.TraceByRequestID("req-1"); !ok {
		t.Fatalf("trace not addressable by request id")
	}
	if _, ok := tr.TraceByRequestID("missing"); ok {
		t.Fatalf("unknown request id matched a trace")
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	tr := NewTracer("svc", 8)
	_, sp := tr.StartSpan(context.Background(), "origin")
	hdr := sp.Context().Traceparent()
	sc, ok := ParseTraceparent(hdr)
	if !ok {
		t.Fatalf("own traceparent %q did not parse", hdr)
	}
	if sc != sp.Context() {
		t.Fatalf("round trip mismatch: %+v vs %+v", sc, sp.Context())
	}

	// A remote context adopted via the context parents the next span.
	ctx := ContextWithRemoteSpan(context.Background(), sc)
	_, child := tr.StartSpan(ctx, "remote-child")
	if child.Context().TraceID != sc.TraceID {
		t.Fatalf("remote child joined trace %q, want %q", child.Context().TraceID, sc.TraceID)
	}
	child.End()
	cd, _ := tr.Trace(sc.TraceID)
	if len(cd.Spans) != 1 || cd.Spans[0].ParentID != sc.SpanID {
		t.Fatalf("remote child not parented on remote span: %+v", cd.Spans)
	}
}

// FuzzTraceparent holds ParseTraceparent, which reads a remote header,
// to its contract on any input: it never panics, whatever it accepts
// is 55 bytes of lowercase hex and dashes, and the accepted context
// renders to a header that parses back to the same context.
func FuzzTraceparent(f *testing.F) {
	valid := "00-" + strings.Repeat("ab", 16) + "-" + strings.Repeat("cd", 8) + "-01"
	for _, s := range []string{
		valid,
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-00",
		"7f-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-ff",
		"ff-" + valid[3:],
		strings.ToUpper(valid),
		"00-" + strings.Repeat("0", 32) + "-" + strings.Repeat("cd", 8) + "-01",
		valid + "-extra",
		"",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sc, ok := ParseTraceparent(s)
		if !ok {
			if sc != (SpanContext{}) {
				t.Fatalf("rejected %q but returned %+v", s, sc)
			}
			return
		}
		if len(s) != 55 {
			t.Fatalf("accepted %q of %d bytes", s, len(s))
		}
		for i := 0; i < len(s); i++ {
			if c := s[i]; !('0' <= c && c <= '9' || 'a' <= c && c <= 'f' || c == '-') {
				t.Fatalf("accepted %q with byte %q at %d", s, c, i)
			}
		}
		back, ok := ParseTraceparent(sc.Traceparent())
		if !ok || back != sc {
			t.Fatalf("%q parsed to %+v, whose header %q parses to %+v, %v", s, sc, sc.Traceparent(), back, ok)
		}
	})
}

func TestParseTraceparentRejectsGarbage(t *testing.T) {
	valid := "00-" + strings.Repeat("ab", 16) + "-" + strings.Repeat("cd", 8) + "-01"
	if _, ok := ParseTraceparent(valid); !ok {
		t.Fatalf("valid header rejected: %q", valid)
	}
	bad := []string{
		"",
		"garbage",
		valid + "0",            // too long
		valid[:54],             // too short
		strings.ToUpper(valid), // uppercase hex
		"ff-" + valid[3:],      // reserved version
		"zz-" + valid[3:],      // non-hex version
		"00-" + strings.Repeat("0", 32) + "-" + strings.Repeat("cd", 8) + "-01",  // zero trace id
		"00-" + strings.Repeat("ab", 16) + "-" + strings.Repeat("0", 16) + "-01", // zero span id
		strings.Replace(valid, "-", "_", 1),
	}
	for _, s := range bad {
		if sc, ok := ParseTraceparent(s); ok {
			t.Fatalf("garbage %q parsed to %+v", s, sc)
		}
	}
	// Missing header = empty string, covered above; make sure the
	// context path ignores an invalid remote too.
	ctx := ContextWithRemoteSpan(context.Background(), SpanContext{})
	if rc := remoteFrom(ctx); rc.Valid() {
		t.Fatalf("invalid remote context stored: %+v", rc)
	}
}

func TestInjectTraceContext(t *testing.T) {
	tr := NewTracer("svc", 8)
	h := make(http.Header)
	InjectTraceContext(context.Background(), h.Set)
	if len(h) != 0 {
		t.Fatalf("inject without span wrote headers: %v", h)
	}
	ctx, sp := tr.StartSpan(context.Background(), "out")
	InjectTraceContext(ctx, h.Set)
	got := h.Get(TraceparentHeader)
	if got != sp.Context().Traceparent() {
		t.Fatalf("injected %q, want %q", got, sp.Context().Traceparent())
	}
}

func TestRingEviction(t *testing.T) {
	tr := NewTracer("svc", 2)
	ids := make([]string, 3)
	for i := range ids {
		_, sp := tr.StartSpan(context.Background(), fmt.Sprintf("t%d", i))
		sp.End()
		ids[i] = sp.Context().TraceID
	}
	if tr.Len() != 2 {
		t.Fatalf("ring holds %d traces, want 2", tr.Len())
	}
	if _, ok := tr.Trace(ids[0]); ok {
		t.Fatalf("oldest trace survived eviction")
	}
	for _, id := range ids[1:] {
		if _, ok := tr.Trace(id); !ok {
			t.Fatalf("recent trace %q evicted", id)
		}
	}
	sums := tr.Summaries()
	if len(sums) != 2 || sums[0].TraceID != ids[2] || sums[1].TraceID != ids[1] {
		t.Fatalf("summaries not newest-first: %+v", sums)
	}
	if sums[0].Root != "t2" || sums[0].Spans != 1 {
		t.Fatalf("summary root/spans wrong: %+v", sums[0])
	}
}

// TestConcurrentSpansUnderEviction hammers start/end/collect from many
// goroutines against a tiny ring so the race detector sees every
// combination of record, evict, and query.
func TestConcurrentSpansUnderEviction(t *testing.T) {
	tr := NewTracer("svc", 4)
	tr.OnSpanEnd(func(SpanData) {})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ctx, root := tr.StartSpan(context.Background(), "root")
				_, child := tr.StartSpan(ctx, "child")
				child.SetAttr("i", fmt.Sprint(i))
				child.SetError(errors.New("e"))
				child.End()
				root.End()
				root.End() // idempotent under race too
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				for _, s := range tr.Summaries() {
					if tr2, ok := tr.Trace(s.TraceID); ok && len(tr2.Spans) > 2 {
						t.Errorf("trace %q has %d spans, want <= 2", s.TraceID, len(tr2.Spans))
						return
					}
					tr.SlowestSpans(s.TraceID, "", 3)
				}
			}
		}()
	}
	wg.Wait()
	if tr.Len() > 4 {
		t.Fatalf("ring grew past its bound: %d", tr.Len())
	}
}

// TestIngestSplice simulates the coordinator path: worker spans
// fetched over the wire are spliced into the local ring, idempotently,
// and assemble into one tree with the local spans.
func TestIngestSplice(t *testing.T) {
	local := NewTracer("coord", 8)
	worker := NewTracer("worker", 8)

	ctx := WithRequestID(context.Background(), "sweep-1")
	ctx, root := local.StartSpan(ctx, "http.request")
	dctx, disp := local.StartSpan(ctx, "dispatch")

	// The worker adopts the coordinator's traceparent, as AccessLog does.
	sc, ok := ParseTraceparent(disp.Context().Traceparent())
	if !ok {
		t.Fatalf("dispatch traceparent did not parse")
	}
	wctx := ContextWithRemoteSpan(context.Background(), sc)
	wctx, wroot := worker.StartSpan(wctx, "http.request")
	_, warm := worker.StartSpan(wctx, "sim.warm")
	warm.End()
	wroot.End()
	disp.End()
	root.End()
	_ = dctx

	wt, ok := worker.Trace(root.Context().TraceID)
	if !ok {
		t.Fatalf("worker has no spans for the shared trace")
	}
	local.Ingest(wt.Spans, "sweep-1")
	local.Ingest(wt.Spans, "sweep-1") // splice twice: dedup by span id
	// Hostile splice payloads are dropped.
	local.Ingest([]SpanData{{TraceID: "nope", SpanID: "x"}}, "")

	got, ok := local.Trace(root.Context().TraceID)
	if !ok {
		t.Fatalf("assembled trace missing")
	}
	if len(got.Spans) != 4 {
		t.Fatalf("assembled trace has %d spans, want 4: %+v", len(got.Spans), got.Spans)
	}
	nodes := got.Ordered()
	want := []struct {
		name  string
		depth int
	}{{"http.request", 0}, {"dispatch", 1}, {"http.request", 2}, {"sim.warm", 3}}
	if len(nodes) != len(want) {
		t.Fatalf("tree has %d nodes, want %d", len(nodes), len(want))
	}
	for i, w := range want {
		if nodes[i].Span.Name != w.name || nodes[i].Depth != w.depth {
			t.Fatalf("node %d = (%s, %d), want (%s, %d)", i, nodes[i].Span.Name, nodes[i].Depth, w.name, w.depth)
		}
	}
	if _, ok := local.Trace("nope"); ok {
		t.Fatalf("hostile trace id ingested")
	}
}

func TestOrderedOrphansSurface(t *testing.T) {
	tid := strings.Repeat("a", 32)
	tr := Trace{TraceID: tid, Spans: []SpanData{
		{TraceID: tid, SpanID: strings.Repeat("1", 16), ParentID: strings.Repeat("f", 16), Name: "orphan", StartUnixNS: 20},
		{TraceID: tid, SpanID: strings.Repeat("2", 16), Name: "root", StartUnixNS: 10},
	}}
	nodes := tr.Ordered()
	if len(nodes) != 2 {
		t.Fatalf("got %d nodes, want 2", len(nodes))
	}
	if nodes[0].Span.Name != "root" || nodes[0].Depth != 0 {
		t.Fatalf("first node = %+v", nodes[0])
	}
	if nodes[1].Span.Name != "orphan" || nodes[1].Depth != 0 {
		t.Fatalf("orphan not surfaced as root: %+v", nodes[1])
	}
}

func TestSlowestSpansAndHook(t *testing.T) {
	tr := NewTracer("svc", 8)
	var ended []string
	tr.OnSpanEnd(func(d SpanData) { ended = append(ended, d.Name) })

	ctx, root := tr.StartSpan(context.Background(), "root")
	var kids []*Span
	for i := 0; i < 4; i++ {
		_, sp := tr.StartSpan(ctx, fmt.Sprintf("k%d", i))
		kids = append(kids, sp)
	}
	// End with distinct durations by faking starts: end order is enough
	// since SlowestSpans sorts by duration; stretch them artificially.
	for i, sp := range kids {
		sp.mu.Lock()
		sp.data.StartUnixNS -= int64(i+1) * int64(time.Second)
		sp.mu.Unlock()
		sp.End()
	}
	root.End()

	top := tr.SlowestSpans(root.Context().TraceID, root.Context().SpanID, 3)
	if len(top) != 3 {
		t.Fatalf("got %d spans, want 3", len(top))
	}
	if top[0].Name != "k3" || top[1].Name != "k2" || top[2].Name != "k1" {
		t.Fatalf("wrong slow order: %s %s %s", top[0].Name, top[1].Name, top[2].Name)
	}
	for _, sp := range top {
		if sp.SpanID == root.Context().SpanID {
			t.Fatalf("excluded span returned")
		}
	}
	if len(ended) != 5 || ended[len(ended)-1] != "root" {
		t.Fatalf("hook saw %v", ended)
	}
}

func TestSummarizeEnvelope(t *testing.T) {
	tr := NewTracer("svc", 8)
	ctx, root := tr.StartSpan(context.Background(), "root")
	_, child := tr.StartSpan(ctx, "child")
	time.Sleep(2 * time.Millisecond)
	child.End()
	root.End()
	sums := tr.Summaries()
	if len(sums) != 1 {
		t.Fatalf("got %d summaries", len(sums))
	}
	s := sums[0]
	if s.Root != "root" || s.Spans != 2 || s.DurationNS <= 0 || s.StartUnixNS == 0 {
		t.Fatalf("bad summary: %+v", s)
	}
}
