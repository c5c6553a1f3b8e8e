package stats

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"

	"eole/internal/obs"
)

// RenderTimeline prints a request trace as a depth-indented span tree
// in Trace.Ordered order (siblings by start time), one row per span
// with its service, start offset rebased onto the trace's earliest
// span, duration and Detail note. The output depends only on the
// trace's shape, so it is deterministic byte for byte. This is the one
// rendering of a trace: eoled serves traces only as JSON and
// `eolectl trace` prints them through here.
func RenderTimeline(w io.Writer, tr obs.Trace) error {
	nodes := tr.Ordered()
	var t0, tEnd int64
	for i, n := range nodes {
		if i == 0 || n.Span.StartUnixNS < t0 {
			t0 = n.Span.StartUnixNS
		}
		if n.Span.EndUnixNS > tEnd {
			tEnd = n.Span.EndUnixNS
		}
	}
	fmt.Fprintf(w, "trace %s", tr.TraceID)
	if tr.RequestID != "" {
		fmt.Fprintf(w, "  request %s", tr.RequestID)
	}
	fmt.Fprintf(w, "  spans %d  duration %s\n", len(tr.Spans), fmtDurNS(tEnd-t0))
	if tr.Dropped > 0 {
		fmt.Fprintf(w, "(%d spans dropped at the per-trace bound)\n", tr.Dropped)
	}
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "SPAN\tSERVICE\tSTART\tDURATION\tNOTE")
	for _, n := range nodes {
		fmt.Fprintf(tw, "%s%s\t%s\t+%s\t%s\t%s\n",
			strings.Repeat("  ", n.Depth), n.Span.Name, n.Span.Service,
			fmtDurNS(n.Span.StartUnixNS-t0),
			fmtDurNS(n.Span.EndUnixNS-n.Span.StartUnixNS), n.Span.Detail())
	}
	return tw.Flush()
}

// fmtDurNS renders a span duration compactly and deterministically:
// seconds past 1s, milliseconds past 1ms, microseconds past 1µs. A unit
// starts where the smaller one would round up to 1000 (999 999 ns
// prints 1.00ms, not 1000.0µs).
func fmtDurNS(ns int64) string {
	switch {
	case ns >= 999_995_000:
		return fmt.Sprintf("%.3fs", float64(ns)/1e9)
	case ns >= 999_950:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	case ns >= 1_000:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}
