package stats

import (
	"fmt"
	"strings"
	"testing"

	"eole/internal/golden"
)

// goldenTimeline is a fixed cross-process waterfall shaped like a real
// cluster sweep: coordinator root + dispatch, worker http/queue/warm/
// detailed spans, one failed retry.
func goldenTimeline() []TimelineSpan {
	return []TimelineSpan{
		{Label: "http.request", Service: "eoled@:8180", Detail: "method=POST path=/v1/cluster/sweep", StartNS: 0, DurNS: 48_000_000, Depth: 0},
		{Label: "dispatch", Service: "eoled@:8180", Detail: "worker=http://w1 attempt=1", StartNS: 1_200_000, DurNS: 900_000, Depth: 1, Error: true},
		{Label: "dispatch", Service: "eoled@:8180", Detail: "worker=http://w2 attempt=2", StartNS: 2_400_000, DurNS: 44_000_000, Depth: 1},
		{Label: "http.request", Service: "eoled@:8181", Detail: "method=POST path=/v1/jobs", StartNS: 2_900_000, DurNS: 43_000_000, Depth: 2},
		{Label: "queue.wait", Service: "eoled@:8181", StartNS: 3_100_000, DurNS: 5_000_000, Depth: 3},
		{Label: "cache.probe", Service: "eoled@:8181", Detail: "hit=false", StartNS: 3_000_000, DurNS: 90_000, Depth: 3},
		{Label: "sim.warm", Service: "eoled@:8181", StartNS: 8_200_000, DurNS: 9_000_000, Depth: 3},
		{Label: "sim.detailed", Service: "eoled@:8181", StartNS: 17_300_000, DurNS: 28_000_000, Depth: 3},
		{Label: "artifact.fetch", Service: "eoled@:8181", Detail: "kind=trace tier=peer", StartNS: 3_400_000, DurNS: 700, Depth: 4},
	}
}

func TestGoldenSVGTimeline(t *testing.T) {
	got, err := RenderTimelineSVG("trace 4bf92f3577b34da6 · request ci-sweep-1", goldenTimeline())
	if err != nil {
		t.Fatal(err)
	}
	wellFormed(t, got)
	golden.Check(t, "testdata/golden_trace_timeline.svg", got)
}

func TestRenderTimelineDeterministic(t *testing.T) {
	a, err := RenderTimelineSVG("T", goldenTimeline())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RenderTimelineSVG("T", goldenTimeline())
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("two renders of the same timeline differ")
	}
}

func TestRenderTimelineContent(t *testing.T) {
	svg, err := RenderTimelineSVG("trace <x>", goldenTimeline())
	if err != nil {
		t.Fatal(err)
	}
	out := string(svg)
	for _, want := range []string{
		"trace &lt;x&gt;",           // title escaping
		"sim.detailed",              // row labels
		"eoled@:8181",               // legend (two services)
		`stroke="` + tlErrInk + `"`, // failed span outline
		"<title>",                   // hover tooltips
		"28ms",                      // duration annotation
		"700ns",                     // sub-µs duration unit
		"ms</text>",                 // time axis ticks
	} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline SVG missing %q", want)
		}
	}
}

func TestRenderTimelineEmpty(t *testing.T) {
	if _, err := RenderTimelineSVG("empty", nil); err == nil {
		t.Error("empty timeline must error")
	}
}

func TestRenderTimelineTruncates(t *testing.T) {
	spans := make([]TimelineSpan, tlMaxRows+7)
	for i := range spans {
		spans[i] = TimelineSpan{Label: fmt.Sprintf("s%d", i), Service: "svc", StartNS: int64(i), DurNS: 10}
	}
	svg, err := RenderTimelineSVG("big", spans)
	if err != nil {
		t.Fatal(err)
	}
	wellFormed(t, svg)
	if !strings.Contains(string(svg), "7 more spans not shown") {
		t.Error("truncation note missing")
	}
	if strings.Contains(string(svg), fmt.Sprintf(">s%d<", tlMaxRows)) {
		t.Error("truncated span rendered")
	}
}

func TestFmtDurNS(t *testing.T) {
	for _, tc := range []struct {
		ns   int64
		want string
	}{
		{999, "999ns"},
		{1_000, "1µs"},
		{1_234, "1.234µs"},
		{12_340_000, "12.34ms"},
		{123_400_000, "123.4ms"},
		{48_000_000_000, "48s"},
		{1_500_000_000, "1.5s"},
	} {
		if got := fmtDurNS(tc.ns); got != tc.want {
			t.Errorf("fmtDurNS(%d) = %q, want %q", tc.ns, got, tc.want)
		}
	}
}
