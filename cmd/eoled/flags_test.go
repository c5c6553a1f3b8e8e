package main

import (
	"bytes"
	"context"
	"flag"
	"log/slog"
	"strings"
	"testing"
)

// TestOptionsValidate parses command lines through defineFlags, as main
// does, and holds validate to every refusal eoled makes before it
// starts and to the logger it builds from what it accepts.
func TestOptionsValidate(t *testing.T) {
	for _, c := range []struct {
		args []string
		err  string // a substring of the refusal; "" = accepted
		lvl  slog.Level
		json bool
	}{
		{args: nil, lvl: slog.LevelInfo},
		{args: []string{"-worker"}, lvl: slog.LevelInfo},
		{args: []string{"-peers", "127.0.0.1:1,127.0.0.1:2"}, lvl: slog.LevelInfo},
		{args: []string{"-worker", "-peers", "127.0.0.1:1"}, err: "-worker and -peers are mutually exclusive"},
		{args: []string{"-log-level", "debug", "-log-format", "json"}, lvl: slog.LevelDebug, json: true},
		{args: []string{"-log-level", "warn"}, lvl: slog.LevelWarn},
		{args: []string{"-log-level", "error", "-log-format", "text"}, lvl: slog.LevelError},
		{args: []string{"-log-level", "verbose"}, err: `unknown -log-level "verbose"`},
		{args: []string{"-log-level", "INFO"}, err: `unknown -log-level "INFO"`},
		{args: []string{"-log-format", "xml"}, err: `unknown -log-format "xml"`},
	} {
		fs := flag.NewFlagSet("eoled", flag.ContinueOnError)
		o := defineFlags(fs)
		if err := fs.Parse(c.args); err != nil {
			t.Fatalf("%q: %v", c.args, err)
		}
		err := o.validate()
		if c.err != "" {
			if err == nil || !strings.Contains(err.Error(), c.err) {
				t.Errorf("%q: validate = %v, want a refusal naming %q", c.args, err, c.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: validate = %v, want nil", c.args, err)
			continue
		}
		var buf bytes.Buffer
		ctx := context.Background()
		log := o.newLogger(&buf)
		if !log.Enabled(ctx, c.lvl) || log.Enabled(ctx, c.lvl-1) {
			t.Errorf("%q: logger does not start at level %v", c.args, c.lvl)
		}
		log.Error("probe")
		if got := strings.HasPrefix(buf.String(), "{"); got != c.json {
			t.Errorf("%q: logged %q, want JSON = %v", c.args, buf.String(), c.json)
		}
	}
}
