package main

import (
	"context"
	"flag"
	"fmt"
	"io"

	"eole/internal/obs"
	"eole/internal/stats"
)

// cmdTrace fetches one assembled request trace from the server's
// /v1/debug/traces ring and renders it as an indented span tree:
//
//	eolectl trace 4bf92f3577b34da6a3ce929d0e0e4736   # by trace ID
//	eolectl trace req-7f3a9c12                       # by request ID
//	eolectl trace -last                              # newest retained trace
//
// The ID is whatever a response carried in X-Eole-Trace-Id or
// X-Eole-Request-Id. -o json prints the server's raw trace body;
// otherwise stats.RenderTimeline draws the tree, since eoled serves a
// trace only as JSON.
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
	id := fs.Arg(0)
	if *last {
		var list struct {
			Enabled bool               `json:"enabled"`
			Traces  []obs.TraceSummary `json:"traces"`
		}
		if _, err := g.getJSON(ctx, "/v1/debug/traces", &list); err != nil {
			return err
		}
		if !list.Enabled {
			return fmt.Errorf("tracing is disabled on %s (restart eoled with -trace-ring > 0)", g.server)
		}
		if len(list.Traces) == 0 {
			return fmt.Errorf("no traces retained on %s yet", g.server)
		}
		id = list.Traces[0].TraceID
	}
	var tr obs.Trace
	raw, err := g.getJSON(ctx, "/v1/debug/traces/"+id, &tr)
	if err != nil {
		return err
	}
	if g.output == "json" {
		return printRawJSON(stdout, raw)
	}
	return stats.RenderTimeline(stdout, tr)
}
