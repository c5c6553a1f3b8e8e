package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"time"
)

// serverStats is the slice of eoled's /v1/stats the status table
// shows; -o json bypasses it and prints the raw body.
type serverStats struct {
	Version       string `json:"version"`
	UptimeNS      int64  `json:"uptime_ns"`
	QueueLen      int    `json:"queue_len"`
	JobsSubmitted uint64 `json:"jobs_submitted"`
	JobsCompleted uint64 `json:"jobs_completed"`
	SimsRun       uint64 `json:"sims_run"`
	SimsAbandoned uint64 `json:"sims_abandoned"`
	CacheHits     uint64 `json:"cache_hits"`
	Coalesced     uint64 `json:"coalesced"`
}

// cmdStatus shows the server's /v1/stats: identity, queue and
// simulation counters.
func cmdStatus(ctx context.Context, g *globalOpts, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("status", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return usagef("status: %v", err)
	}
	if fs.NArg() > 0 {
		return usagef("status: unexpected argument %q", fs.Arg(0))
	}
	var st serverStats
	raw, err := g.getJSON(ctx, "/v1/stats", &st)
	if err != nil {
		return err
	}
	if g.output == "json" {
		return printRawJSON(stdout, raw)
	}
	tw := newTable(stdout)
	fmt.Fprintf(tw, "version\t%s\n", st.Version)
	fmt.Fprintf(tw, "uptime\t%s\n", time.Duration(st.UptimeNS).Round(time.Second))
	fmt.Fprintf(tw, "queue length\t%d\n", st.QueueLen)
	fmt.Fprintf(tw, "cells submitted\t%d\n", st.JobsSubmitted)
	fmt.Fprintf(tw, "cells completed\t%d\n", st.JobsCompleted)
	fmt.Fprintf(tw, "sims run\t%d\n", st.SimsRun)
	fmt.Fprintf(tw, "sims abandoned\t%d\n", st.SimsAbandoned)
	fmt.Fprintf(tw, "cache hits\t%d\n", st.CacheHits)
	fmt.Fprintf(tw, "coalesced\t%d\n", st.Coalesced)
	return tw.Flush()
}
