// Command eolectl is the operator CLI for an eoled server: it shows
// the server's stats and renders the span tree of one of its requests.
//
// Usage:
//
//	eolectl status                                            # server stats
//	eolectl trace -last                                       # newest request's span waterfall
//	eolectl trace 4bf92f3577b34da6a3ce929d0e0e4736            # one trace by trace/request ID
//	eolectl -server http://sim-host:8080 -o json status       # another server, raw JSON
//
// Every command takes the global flags before the subcommand name:
//
//	-server URL   the eoled to talk to (default http://localhost:8080,
//	              which is eoled's default -addr)
//	-o FORMAT     "table" (default) or "json"
//	-timeout D    per-request timeout (default 30s)
//
// Sweeps are run by `eolesim -server URL` and `experiments -server URL`,
// which post to the server's /v1/sweep and wait for the reply.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// globalOpts is everything the subcommands share: where the server
// is, how to render, how long to wait.
type globalOpts struct {
	server  string
	output  string
	timeout time.Duration
}

// getJSON fetches one JSON resource of the server into out and also
// returns the body verbatim, so -o json can print exactly what the
// server said instead of a lossy re-marshal. A refusal reads as
// "GET path: HTTP code: the server's error message".
func (g *globalOpts) getJSON(ctx context.Context, path string, out any) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, g.server+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := (&http.Client{Timeout: g.timeout}).Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<26))
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		var envelope struct {
			Error string `json:"error"`
		}
		msg := strings.TrimSpace(string(raw))
		if json.Unmarshal(raw, &envelope) == nil && envelope.Error != "" {
			msg = envelope.Error
		}
		return nil, fmt.Errorf("GET %s: HTTP %d: %s", path, resp.StatusCode, msg)
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return nil, fmt.Errorf("GET %s: bad body: %w", path, err)
	}
	return raw, nil
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	g := globalOpts{output: "table", timeout: 30 * time.Second}
	fs := flag.NewFlagSet("eolectl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&g.server, "server", "http://localhost:8080", "server URL")
	fs.StringVar(&g.output, "o", g.output, `output format: "table" or "json"`)
	fs.DurationVar(&g.timeout, "timeout", g.timeout, "per-request timeout")
	fs.Usage = func() { usage(stderr, fs) }
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if g.output != "table" && g.output != "json" {
		fmt.Fprintf(stderr, "eolectl: bad -o %q: want \"table\" or \"json\"\n", g.output)
		return 2
	}
	rest := fs.Args()
	if len(rest) == 0 {
		usage(stderr, fs)
		return 2
	}
	cmd, rest := rest[0], rest[1:]

	var err error
	switch cmd {
	case "status":
		err = cmdStatus(ctx, &g, rest, stdout, stderr)
	case "trace":
		err = cmdTrace(ctx, &g, rest, stdout, stderr)
	case "help", "-h", "--help":
		usage(stdout, fs)
		return 0
	default:
		fmt.Fprintf(stderr, "eolectl: unknown command %q\n", cmd)
		usage(stderr, fs)
		return 2
	}
	if err != nil {
		fmt.Fprintf(stderr, "eolectl: %v\n", err)
		if errors.As(err, new(usageError)) {
			return 2
		}
		return 1
	}
	return 0
}

// usageError marks errors caused by bad invocation (exit 2) rather
// than a failed operation (exit 1).
type usageError struct{ msg string }

func (e usageError) Error() string         { return e.msg }
func usagef(format string, a ...any) error { return usageError{fmt.Sprintf(format, a...)} }

func usage(w io.Writer, fs *flag.FlagSet) {
	fmt.Fprint(w, `usage: eolectl [global flags] <command> [args]

commands:
  status      show server stats
  trace       show one request's span tree (by trace/request ID, or -last)

global flags:
`)
	fs.PrintDefaults()
}
