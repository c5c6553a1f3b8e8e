package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
)

// sweepFixture scripts the async-job dance: POST /v1/jobs answers
// with a fixed id and the event stream serves NDJSON frames (heartbeat
// included). Disconnects and resume are the shared client's job and
// are tested with it (internal/jobs); here the frames only feed the
// CLI's rendering. The counter reports stream attaches.
func sweepFixture(t *testing.T) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	frames := []string{
		`{"seq":1,"type":"cell","job":"job0001","cell":{"index":0,"config":"EOLE_4_64","workload":"gzip","report":{"config":"EOLE_4_64","benchmark":"gzip","cycles":4000,"committed":5000,"ipc":1.25}}}`,
		`{"type":"heartbeat"}`,
		`{"seq":2,"type":"cell","job":"job0001","cell":{"index":2,"config":"Baseline_6_64","workload":"gzip","cached":true,"report":{"config":"Baseline_6_64","benchmark":"gzip","cycles":5000,"committed":5000,"ipc":1.0}}}`,
		`{"seq":3,"type":"cell","job":"job0001","cell":{"index":1,"config":"EOLE_4_64","workload":"hmmer","report":{"config":"EOLE_4_64","benchmark":"hmmer","cycles":4200,"committed":5000,"ipc":1.19,"sampled":true,"ipc_ci":0.021,"sample_windows":4}}}`,
		`{"seq":4,"type":"cell","job":"job0001","cell":{"index":3,"config":"Baseline_6_64","workload":"hmmer","error":"workload stream ended early"}}`,
		`{"seq":5,"type":"done","job":"job0001","state":"failed","completed":3,"failed":1,"total":4}`,
	}
	var attaches atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var body map[string]any
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil {
			t.Errorf("bad job body: %v", err)
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprint(w, `{"id":"job0001","state":"queued","cells_total":4,"status_url":"/v1/jobs/job0001","events_url":"/v1/jobs/job0001/events"}`)
	})
	mux.HandleFunc("GET /v1/jobs/job0001/events", func(w http.ResponseWriter, r *http.Request) {
		attaches.Add(1)
		w.Header().Set("Content-Type", "application/x-ndjson")
		for _, fr := range frames {
			fmt.Fprintln(w, fr)
		}
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv, &attaches
}

func TestGoldenSweep(t *testing.T) {
	srv, _ := sweepFixture(t)
	code, stdout, stderr := runCtl(t, "-server", srv.URL, "sweep",
		"-configs", "EOLE_4_64,Baseline_6_64", "-workloads", "gzip,hmmer",
		"-warmup", "2000", "-measure", "5000")
	if code != 1 {
		t.Fatalf("exit %d, want 1 (one cell failed); stderr: %s", code, stderr)
	}
	// Progress lines land on stderr in completion order; the table on
	// stdout is in deterministic cell order regardless.
	for _, want := range []string{
		"job job0001: 4 cells",
		"[1/4] EOLE_4_64/gzip ipc=1.250",
		"[2/4] Baseline_6_64/gzip ipc=1.000 (cached)",
		"[4/4] Baseline_6_64/hmmer error: workload stream ended early",
		"1 of 4 cells errored",
	} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr missing %q:\n%s", want, stderr)
		}
	}
	checkGolden(t, "sweep_table.golden", []byte(stdout))

	code, stdout, _ = runCtl(t, "-server", srv.URL, "-o", "json", "sweep",
		"-configs", "EOLE_4_64,Baseline_6_64", "-workloads", "gzip,hmmer")
	if code != 1 {
		t.Fatalf("json exit %d, want 1", code)
	}
	checkGolden(t, "sweep_json.golden", []byte(stdout))
}

func TestSweepDetach(t *testing.T) {
	srv, attempts := sweepFixture(t)
	code, stdout, _ := runCtl(t, "-server", srv.URL, "sweep",
		"-configs", "EOLE_4_64", "-workloads", "gzip", "-detach")
	if code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	if stdout != "job0001\n" {
		t.Errorf("detach stdout %q, want the bare job id", stdout)
	}
	if got := attempts.Load(); got != 0 {
		t.Errorf("detach attached %d event streams, want 0", got)
	}
}

func TestSweepGridFile(t *testing.T) {
	srv, _ := sweepFixture(t)
	grid := filepath.Join(t.TempDir(), "grid.json")
	if err := os.WriteFile(grid, []byte(`{"base_name":"EOLE_4_64","axes":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	code, stdout, _ := runCtl(t, "-server", srv.URL, "sweep",
		"-grid", grid, "-workloads", "gzip", "-detach")
	if code != 0 || stdout != "job0001\n" {
		t.Fatalf("grid sweep: exit %d stdout %q", code, stdout)
	}
}

func TestSweepUsageErrors(t *testing.T) {
	for _, tc := range [][]string{
		{"sweep", "-workloads", "gzip"},                        // no configs or grid
		{"sweep", "-configs", "EOLE_4_64"},                     // no workloads
		{"sweep", "-configs", "A", "-workloads", "x", "stray"}, // positional arg
	} {
		if code, _, _ := runCtl(t, append([]string{"-server", "http://unused"}, tc...)...); code != 2 {
			t.Errorf("%v: exit %d, want 2", tc, code)
		}
	}
}
