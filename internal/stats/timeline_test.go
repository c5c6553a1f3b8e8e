package stats

import (
	"bytes"
	"strings"
	"testing"

	"eole/internal/obs"
)

// waterfall is a fixed cross-process trace shaped like a real cluster
// sweep: a coordinator root, a failed dispatch and its retry, and the
// worker's spans under the retry. Spans are listed in completion
// order, so queue.wait comes before cache.probe although it started
// later; artifact.fetch lasts 700ns.
func waterfall() obs.Trace {
	const t0 = 1_754_650_000_000_000_000
	sp := func(id, parent, name, svc string, start, dur int64) obs.SpanData {
		return obs.SpanData{SpanID: id, ParentID: parent, Name: name, Service: svc,
			StartUnixNS: t0 + start, EndUnixNS: t0 + start + dur}
	}
	failed := sp("d1", "root", "dispatch", "eoled@:8180", 1_200_000, 900_000)
	failed.Attrs = map[string]string{"worker": "http://w1", "attempt": "1"}
	failed.Error = "dial tcp: connection refused"
	return obs.Trace{TraceID: "4bf92f3577b34da6", RequestID: "ci-sweep-1", Spans: []obs.SpanData{
		sp("root", "", "http.request", "eoled@:8180", 0, 48_000_000),
		failed,
		sp("d2", "root", "dispatch", "eoled@:8180", 2_400_000, 44_000_000),
		sp("w", "d2", "http.request", "eoled@:8181", 2_900_000, 43_000_000),
		sp("q", "w", "queue.wait", "eoled@:8181", 3_100_000, 5_000_000),
		sp("p", "w", "cache.probe", "eoled@:8181", 3_000_000, 90_000),
		sp("f", "p", "artifact.fetch", "eoled@:8181", 3_040_000, 700),
		sp("s", "w", "sim.detailed", "eoled@:8181", 17_300_000, 28_000_000),
	}}
}

func render(t *testing.T, tr obs.Trace) string {
	t.Helper()
	var out bytes.Buffer
	if err := RenderTimeline(&out, tr); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

func TestRenderTimelineContent(t *testing.T) {
	out := render(t, waterfall())
	for _, want := range []string{
		"trace 4bf92f3577b34da6  request ci-sweep-1  spans 8  duration 48.00ms\n", // header
		"\n        artifact.fetch ",          // depth indents the label
		"eoled@:8181",                        // both services
		"error=dial tcp: connection refused", // failed span's note
		" +1.20ms ",                          // start rebased onto the root
		" 28.00ms ",                          // duration
		" 700ns ",                            // sub-µs duration unit
	} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q:\n%s", want, out)
		}
	}
	if probe, queue := strings.Index(out, "cache.probe"), strings.Index(out, "queue.wait"); probe > queue {
		t.Errorf("siblings not in start order:\n%s", out)
	}
}

// The timeline depends only on the trace's shape: the same trace
// renders the same bytes, whatever order its spans arrived in.
func TestRenderTimelineDeterministic(t *testing.T) {
	tr := waterfall()
	want := render(t, tr)
	if again := render(t, tr); again != want {
		t.Fatal("two renders of the same trace differ")
	}
	for i, j := 0, len(tr.Spans)-1; i < j; i, j = i+1, j-1 {
		tr.Spans[i], tr.Spans[j] = tr.Spans[j], tr.Spans[i]
	}
	if got := render(t, tr); got != want {
		t.Errorf("span arrival order changed the timeline:\n%s\nwant\n%s", got, want)
	}
}

// A trace with no spans prints its header and no rows.
func TestRenderTimelineEmpty(t *testing.T) {
	if got, want := render(t, obs.Trace{TraceID: "t0"}), "trace t0  spans 0  duration 0ns\nSPAN  SERVICE  START  DURATION  NOTE\n"; got != want {
		t.Errorf("empty trace:\n%q\nwant\n%q", got, want)
	}
}

// A trace cut at the tracer's per-trace bound says how many spans it
// lost.
func TestRenderTimelineTruncates(t *testing.T) {
	tr := obs.Trace{TraceID: "t1", Dropped: 7, Spans: []obs.SpanData{{SpanID: "a", Name: "http.request", EndUnixNS: 10}}}
	if out := render(t, tr); !strings.Contains(out, "(7 spans dropped at the per-trace bound)") {
		t.Errorf("cut trace does not report its dropped spans:\n%s", out)
	}
}

// fmtDurNS picks its unit at each boundary: ns below 1µs, then µs, ms
// and s, a unit beginning where the smaller one would round to 1000.
func TestFmtDurNS(t *testing.T) {
	for _, tc := range []struct {
		ns   int64
		want string
	}{
		{0, "0ns"},
		{700, "700ns"},
		{999, "999ns"},
		{1_000, "1.0µs"},
		{900_000, "900.0µs"},
		{999_949, "999.9µs"},
		{999_999, "1.00ms"},
		{1_000_000, "1.00ms"},
		{295_800_000, "295.80ms"},
		{999_994_999, "999.99ms"},
		{999_996_000, "1.000s"},
		{1_000_000_000, "1.000s"},
		{1_500_000_000, "1.500s"},
	} {
		if got := fmtDurNS(tc.ns); got != tc.want {
			t.Errorf("fmtDurNS(%d) = %q, want %q", tc.ns, got, tc.want)
		}
	}
}
