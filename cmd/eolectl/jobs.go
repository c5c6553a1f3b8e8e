package main

import (
	"context"
	"flag"
	"fmt"
	"io"
)

// cmdStatus shows the server's /v1/stats: identity, queue, simulation
// counters and the job-registry accounting.
func cmdStatus(ctx context.Context, g *globalOpts, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("status", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return usagef("status: %v", err)
	}
	if fs.NArg() > 0 {
		return usagef("status: unexpected argument %q", fs.Arg(0))
	}
	server, err := g.resolveServer()
	if err != nil {
		return err
	}
	var st serverStats
	raw, err := newClient(server, g.timeout).GetJSON(ctx, "/v1/stats", &st)
	if err != nil {
		return err
	}
	if g.output == "json" {
		return printRawJSON(stdout, raw)
	}
	return renderStats(stdout, st)
}

// cmdJobs dispatches the job-resource verbs:
//
//	eolectl jobs list
//	eolectl jobs get <id>
//	eolectl jobs cancel <id>
func cmdJobs(ctx context.Context, g *globalOpts, args []string, stdout, stderr io.Writer) error {
	if len(args) == 0 {
		return usagef("jobs: need a verb: list, get, or cancel")
	}
	verb, rest := args[0], args[1:]
	server, err := g.resolveServer()
	if err != nil {
		return err
	}
	c := newClient(server, g.timeout)
	switch verb {
	case "list":
		if len(rest) > 0 {
			return usagef("jobs list: unexpected argument %q", rest[0])
		}
		list, raw, err := c.List(ctx)
		if err != nil {
			return err
		}
		if g.output == "json" {
			return printRawJSON(stdout, raw)
		}
		return renderJobList(stdout, list)
	case "get":
		if len(rest) != 1 {
			return usagef("jobs get: need exactly one job id")
		}
		st, raw, err := c.Status(ctx, rest[0])
		if err != nil {
			return err
		}
		if g.output == "json" {
			return printRawJSON(stdout, raw)
		}
		return renderJobStatus(stdout, st)
	case "cancel":
		if len(rest) != 1 {
			return usagef("jobs cancel: need exactly one job id")
		}
		st, err := c.Cancel(ctx, rest[0])
		if err != nil {
			return err
		}
		if g.output == "json" {
			return printJSON(stdout, st)
		}
		fmt.Fprintf(stdout, "job %s: %s (%d/%d cells)\n", st.ID, st.State, st.CellsCompleted, st.CellsTotal)
		return nil
	default:
		return usagef("jobs: unknown verb %q (want list, get, or cancel)", verb)
	}
}
