package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"time"

	"eole/internal/obs"
)

// cmdTrace fetches one assembled request trace from the server's
// /v1/debug/traces ring and renders it as an indented span tree:
//
//	eolectl trace 4bf92f3577b34da6a3ce929d0e0e4736   # by trace ID
//	eolectl trace req-7f3a9c12                       # by request ID
//	eolectl trace -last                              # newest retained trace
//
// The ID is whatever a response carried in X-Eole-Trace-Id or
// X-Eole-Request-Id. -o json prints the server's raw trace body; the
// SVG waterfall is served by the server itself (?format=svg).
func cmdTrace(ctx context.Context, g *globalOpts, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	last := fs.Bool("last", false, "show the newest retained trace instead of naming one")
	if err := fs.Parse(args); err != nil {
		return usagef("trace: %v", err)
	}
	if *last && fs.NArg() > 0 {
		return usagef("trace: -last takes no ID argument")
	}
	if !*last && fs.NArg() != 1 {
		return usagef("trace: need exactly one trace or request ID (or -last)")
	}
	server, err := g.resolveServer()
	if err != nil {
		return err
	}
	c := newClient(server, g.timeout)
	id := fs.Arg(0)
	if *last {
		var list debugTraceList
		if _, err := c.GetJSON(ctx, "/v1/debug/traces", &list); err != nil {
			return err
		}
		if !list.Enabled {
			return fmt.Errorf("tracing is disabled on %s (restart eoled with -trace-ring > 0)", server)
		}
		if len(list.Traces) == 0 {
			return fmt.Errorf("no traces retained on %s yet", server)
		}
		id = list.Traces[0].TraceID
	}
	var tr obs.Trace
	raw, err := c.GetJSON(ctx, "/v1/debug/traces/"+id, &tr)
	if err != nil {
		return err
	}
	if g.output == "json" {
		return printRawJSON(stdout, raw)
	}
	return renderTrace(stdout, tr)
}

// renderTrace prints the trace as a depth-indented tree in the same
// order the server's SVG timeline draws it: start offsets rebased onto
// the trace's earliest span.
func renderTrace(w io.Writer, tr obs.Trace) error {
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
	fmt.Fprintf(w, "  spans %d  duration %s\n", len(tr.Spans), fmtSpanDur(tEnd-t0))
	if tr.Dropped > 0 {
		fmt.Fprintf(w, "(%d spans dropped at the per-trace bound)\n", tr.Dropped)
	}
	tw := newTable(w)
	fmt.Fprintln(tw, "SPAN\tSERVICE\tSTART\tDURATION\tNOTE")
	for _, n := range nodes {
		indent := ""
		for i := 0; i < n.Depth; i++ {
			indent += "  "
		}
		fmt.Fprintf(tw, "%s%s\t%s\t+%s\t%s\t%s\n",
			indent, n.Span.Name, n.Span.Service,
			fmtSpanDur(n.Span.StartUnixNS-t0),
			fmtSpanDur(n.Span.EndUnixNS-n.Span.StartUnixNS), n.Span.Detail())
	}
	return tw.Flush()
}

// fmtSpanDur renders a span duration compactly and deterministically:
// seconds past 1s, milliseconds past 1ms, microseconds past 1µs.
func fmtSpanDur(ns int64) string {
	d := time.Duration(ns)
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.3fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	case d >= time.Microsecond:
		return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
	default:
		return fmt.Sprintf("%dns", ns)
	}
}
