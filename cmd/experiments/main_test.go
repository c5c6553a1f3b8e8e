package main

import (
	"encoding/xml"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"eole/internal/experiments"
)

// TestWriteFigure renders one paper figure end to end (a single
// workload keeps it fast): -figdir writes the bar chart, with figure6's
// speedup-1.0 reference line, and the heatmap beside it, both
// well-formed SVG.
func TestWriteFigure(t *testing.T) {
	o := experiments.DefaultOpts()
	o.Warmup, o.Measure, o.Workloads = 2_000, 5_000, []string{"gzip"}
	tb, err := experiments.TableByID("figure6", o)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	paths, err := writeFigure(dir, "figure6", tb)
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
