package main

// The eolectl surface is pinned by golden files: every table and JSON
// rendering is byte-compared against testdata/. To regenerate after
// an intentional output change:
//
//	EOLE_UPDATE_GOLDEN=1 go test ./cmd/eolectl
//
// and review the diff like any other golden update. The fixture
// server speaks the same wire shapes eoled serves (fixed timestamps,
// so output is deterministic); CI runs the real binary against a real
// eoled.

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if os.Getenv("EOLE_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with EOLE_UPDATE_GOLDEN=1 to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// runCtl invokes the CLI exactly as main would, capturing both
// streams and the exit code.
func runCtl(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errBuf bytes.Buffer
	code = run(context.Background(), args, &out, &errBuf)
	return code, out.String(), errBuf.String()
}

// fixtureServer is a scripted eoled stand-in with fixed timestamps
// and reports, so CLI output is byte-stable across runs.
func fixtureServer(t *testing.T) *httptest.Server {
	t.Helper()
	const statsBody = `{
		"jobs_submitted": 24, "jobs_completed": 20, "jobs_failed": 1, "jobs_canceled": 3,
		"sims_run": 12, "sims_abandoned": 2, "cache_hits": 6, "coalesced": 2,
		"version": "0.7.0", "uptime_ns": 754000000000, "queue_len": 3,
		"endpoints": {"/v1/simulate": {"requests": 9, "errors": 0}}
	}`
	// One assembled cluster-sweep trace with fixed timestamps: a
	// coordinator root, a dispatch hop, and the worker's spans spliced
	// in (note the worker-side http.request parented on the dispatch).
	const traceBody = `{
		"trace_id": "4bf92f3577b34da6a3ce929d0e0e4736", "request_id": "rid-1",
		"spans": [
			{"trace_id": "4bf92f3577b34da6a3ce929d0e0e4736", "span_id": "00f067aa0ba90200",
			 "name": "http.request", "service": "eoled@:8180",
			 "start_unix_ns": 1754650000000000000, "end_unix_ns": 1754650001500000000,
			 "attrs": {"method": "POST", "path": "/v1/cluster/sweep", "status": "200"}},
			{"trace_id": "4bf92f3577b34da6a3ce929d0e0e4736", "span_id": "00f067aa0ba90201",
			 "parent_id": "00f067aa0ba90200", "name": "dispatch", "service": "eoled@:8180",
			 "start_unix_ns": 1754650000002000000, "end_unix_ns": 1754650001400000000,
			 "attrs": {"attempt": "1", "config": "EOLE_4_64", "worker": "http://w1:8181", "workload": "gzip"}},
			{"trace_id": "4bf92f3577b34da6a3ce929d0e0e4736", "span_id": "00f067aa0ba90301",
			 "parent_id": "00f067aa0ba90201", "name": "http.request", "service": "eoled@:8181",
			 "start_unix_ns": 1754650000003000000, "end_unix_ns": 1754650001390000000,
			 "attrs": {"method": "POST", "path": "/v1/simulate", "status": "200"}},
			{"trace_id": "4bf92f3577b34da6a3ce929d0e0e4736", "span_id": "00f067aa0ba90302",
			 "parent_id": "00f067aa0ba90301", "name": "queue.wait", "service": "eoled@:8181",
			 "start_unix_ns": 1754650000003500000, "end_unix_ns": 1754650000004100000},
			{"trace_id": "4bf92f3577b34da6a3ce929d0e0e4736", "span_id": "00f067aa0ba90303",
			 "parent_id": "00f067aa0ba90301", "name": "sim.warm", "service": "eoled@:8181",
			 "start_unix_ns": 1754650000004200000, "end_unix_ns": 1754650000300000000},
			{"trace_id": "4bf92f3577b34da6a3ce929d0e0e4736", "span_id": "00f067aa0ba90304",
			 "parent_id": "00f067aa0ba90301", "name": "sim.detailed", "service": "eoled@:8181",
			 "start_unix_ns": 1754650000300100000, "end_unix_ns": 1754650001380000000}
		]}`
	const traceListBody = `{"enabled": true, "traces": [
		{"trace_id": "4bf92f3577b34da6a3ce929d0e0e4736", "request_id": "rid-1",
		 "root": "http.request", "start_unix_ns": 1754650000000000000,
		 "duration_ns": 1500000000, "spans": 6}
	]}`

	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/debug/traces", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, traceListBody)
	})
	mux.HandleFunc("GET /v1/debug/traces/4bf92f3577b34da6a3ce929d0e0e4736", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, traceBody)
	})
	mux.HandleFunc("GET /v1/debug/traces/rid-1", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, traceBody)
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, statsBody)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprint(w, `{"error": "no such trace"}`)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func TestGoldenStatus(t *testing.T) {
	srv := fixtureServer(t)
	code, stdout, stderr := runCtl(t, "-server", srv.URL, "status")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	checkGolden(t, "status_table.golden", []byte(stdout))

	code, stdout, _ = runCtl(t, "-server", srv.URL, "-o", "json", "status")
	if code != 0 {
		t.Fatalf("json exit %d", code)
	}
	checkGolden(t, "status_json.golden", []byte(stdout))
}

// TestGoldenTrace pins `eolectl trace` output: the span tree by trace
// ID, the same trace by request ID and via -last, and the raw -o json
// passthrough.
func TestGoldenTrace(t *testing.T) {
	srv := fixtureServer(t)
	code, stdout, stderr := runCtl(t, "-server", srv.URL, "trace", "4bf92f3577b34da6a3ce929d0e0e4736")
	if code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, stderr)
	}
	checkGolden(t, "trace_table.golden", []byte(stdout))

	// The same trace by request ID and by -last must render identically.
	code, byReq, _ := runCtl(t, "-server", srv.URL, "trace", "rid-1")
	if code != 0 || byReq != stdout {
		t.Errorf("trace by request ID: exit %d, output drifted from trace-ID output", code)
	}
	code, byLast, _ := runCtl(t, "-server", srv.URL, "trace", "-last")
	if code != 0 || byLast != stdout {
		t.Errorf("trace -last: exit %d, output drifted from trace-ID output", code)
	}

	code, stdout, _ = runCtl(t, "-server", srv.URL, "-o", "json", "trace", "4bf92f3577b34da6a3ce929d0e0e4736")
	if code != 0 {
		t.Fatalf("json exit %d", code)
	}
	checkGolden(t, "trace_json.golden", []byte(stdout))
}

func TestTraceUsageErrors(t *testing.T) {
	code, _, stderr := runCtl(t, "-server", "http://unused", "trace")
	if code != 2 || !strings.Contains(stderr, "trace or request ID") {
		t.Errorf("bare trace: exit %d, stderr %q", code, stderr)
	}
	code, _, stderr = runCtl(t, "-server", "http://unused", "trace", "-last", "extra")
	if code != 2 || !strings.Contains(stderr, "-last takes no ID") {
		t.Errorf("trace -last extra: exit %d, stderr %q", code, stderr)
	}
}

func TestTraceNotFound(t *testing.T) {
	srv := fixtureServer(t)
	code, _, stderr := runCtl(t, "-server", srv.URL, "trace", "deadbeef")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(stderr, "HTTP 404") {
		t.Errorf("stderr %q does not surface the 404", stderr)
	}
}

func TestGoldenUsage(t *testing.T) {
	code, stdout, stderr := runCtl(t, "help")
	if code != 0 {
		t.Fatalf("help: exit %d", code)
	}
	checkGolden(t, "usage.golden", []byte(stdout))
	// Without -server, eolectl talks to eoled's default -addr.
	if !strings.Contains(stderr, `(default "http://localhost:8080")`) {
		t.Errorf("flag defaults do not name http://localhost:8080:\n%s", stderr)
	}

	if code, _, _ := runCtl(t); code != 2 {
		t.Errorf("bare invocation: exit %d, want 2", code)
	}
	// The job API's commands are gone with it.
	for _, cmd := range []string{"frobnicate", "sweep", "jobs", "configure"} {
		if code, _, stderr := runCtl(t, cmd); code != 2 || !strings.Contains(stderr, "unknown command") {
			t.Errorf("%s: exit %d, stderr %q", cmd, code, stderr)
		}
	}
	if code, _, stderr := runCtl(t, "-profile", "lab", "status"); code != 2 || !strings.Contains(stderr, "-profile") {
		t.Errorf("-profile: exit %d, stderr %q", code, stderr)
	}
	if code, _, stderr := runCtl(t, "-server", "http://unused", "status", "extra"); code != 2 || !strings.Contains(stderr, "unexpected argument") {
		t.Errorf("status extra: exit %d, stderr %q", code, stderr)
	}
	if code, _, stderr := runCtl(t, "-o", "yaml", "status"); code != 2 || !strings.Contains(stderr, "bad -o") {
		t.Errorf("bad -o: exit %d, stderr %q", code, stderr)
	}
}
