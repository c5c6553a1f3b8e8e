package main

import (
	"encoding/json"
	"encoding/xml"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"eole"
	"eole/internal/experiments"
)

// TestWriteFigure renders one paper figure end to end (a single
// workload keeps it fast): -figdir writes the bar chart, with figure6's
// speedup-1.0 reference line, and the heatmap beside it, both
// well-formed SVG.
func TestWriteFigure(t *testing.T) {
	o := experiments.DefaultOpts()
	o.Warmup, o.Measure, o.Workloads = 2_000, 5_000, []string{"gzip"}
	a, err := experiments.ByID("figure6", o)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	paths, err := writeFigure(dir, a)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{filepath.Join(dir, "figure6.svg"), filepath.Join(dir, "figure6_heatmap.svg")}
	if strings.Join(paths, " ") != strings.Join(want, " ") {
		t.Fatalf("wrote %v, want %v", paths, want)
	}
	for _, path := range paths {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var node struct{}
		if err := xml.Unmarshal(b, &node); err != nil {
			t.Errorf("%s is not well-formed XML: %v", path, err)
		}
		if !strings.Contains(string(b), "gzip") {
			t.Errorf("%s has no gzip label", path)
		}
	}
	bars, _ := os.ReadFile(paths[0])
	if !strings.Contains(string(bars), "stroke-dasharray") {
		t.Error("figure6 should draw its speedup-1.0 reference line")
	}
}

// TestEachArtefactBuiltOnce: with -figdir and -chart, an artefact is
// built once and its SVG, chart and text drawn from that one build, so
// against a server each tabular artefact costs one POST /v1/sweep,
// as many as printing its text alone. The server fakes every cell.
func TestEachArtefactBuiltOnce(t *testing.T) {
	var sweeps atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/sweep" {
			http.NotFound(w, r)
			return
		}
		sweeps.Add(1)
		var req struct {
			Configs   []eole.Config `json:"configs"`
			Workloads []string      `json:"workloads"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		type cell struct {
			Config   string       `json:"config"`
			Workload string       `json:"workload"`
			Report   *eole.Report `json:"report"`
		}
		var reply struct {
			Results []cell `json:"results"`
		}
		for i, c := range req.Configs {
			for _, wl := range req.Workloads {
				rep := &eole.Report{Config: c.Name, Benchmark: wl, IPC: 1 + float64(i)/10}
				reply.Results = append(reply.Results, cell{c.Name, wl, rep})
			}
		}
		json.NewEncoder(w).Encode(reply)
	}))
	defer srv.Close()

	o := experiments.DefaultOpts()
	o.Server, o.Workloads = srv.URL, []string{"gzip", "art"}
	total := 0
	for _, id := range experiments.IDs() {
		sweeps.Store(0)
		if err := render(io.Discard, []string{id}, o, "", false); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		text := sweeps.Load()
		sweeps.Store(0)
		if err := render(io.Discard, []string{id}, o, t.TempDir(), true); err != nil {
			t.Fatalf("%s with -figdir and -chart: %v", id, err)
		}
		if all := sweeps.Load(); all != text || all > 1 {
			t.Errorf("%s: %d sweeps with -figdir and -chart, %d for its text; want one at most", id, all, text)
		}
		total += int(text)
	}
	if total != 10 { // table3 and the nine figures; table1, table2 and section6 simulate nothing
		t.Errorf("%d sweeps over every artefact, want 10", total)
	}
}

// TestErrorPrefixedOnce runs the command on an unknown artefact in a
// child process: the error it prints carries the command's name once,
// the library's messages having none of their own.
func TestErrorPrefixedOnce(t *testing.T) {
	if os.Getenv("EXPERIMENTS_RUN_MAIN") != "" {
		os.Args = []string{"experiments", "figure99"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestErrorPrefixedOnce$")
	cmd.Env = append(os.Environ(), "EXPERIMENTS_RUN_MAIN=1")
	var stderr strings.Builder
	cmd.Stderr = &stderr
	if err := cmd.Run(); err == nil {
		t.Fatal("an unknown artefact must fail the command")
	}
	got := stderr.String()
	if !strings.HasPrefix(got, `experiments: unknown artefact "figure99"`) || strings.Count(got, "experiments:") != 1 {
		t.Errorf("stderr = %q, want one \"experiments:\" prefix", got)
	}
}
