package stats

import (
	"encoding/xml"
	"fmt"
	"strings"
	"testing"

	"eole/internal/golden"
)

// Golden SVG figure tests: the rendered bar chart and heatmap for a
// fixed table are pinned as testdata. SVG is one element per line, so
// a mismatch's line diff names the marks that moved.

func goldenTable() *Table {
	tb := NewTable("Figure 7: speedup over baseline", "benchmark", "EOLE_4_64", "Baseline_6_64")
	tb.Note = "warmup 5k / measure 20k"
	tb.WithGeomean = true
	tb.AddRow("gzip", 1.12, 1.00)
	tb.AddRowCI("namd & friends", []float64{1.25, 1.01}, []float64{0.04, 0.02})
	tb.AddRow("hmmer", 0.97, 1.00)
	return tb
}

func wellFormed(t *testing.T, svg []byte) {
	t.Helper()
	dec := xml.NewDecoder(strings.NewReader(string(svg)))
	for {
		_, err := dec.Token()
		if err != nil {
			if err.Error() == "EOF" {
				return
			}
			t.Fatalf("SVG not well-formed XML: %v", err)
		}
	}
}

func TestGoldenSVGBars(t *testing.T) {
	got, err := goldenTable().RenderSVG(1.0)
	if err != nil {
		t.Fatal(err)
	}
	wellFormed(t, got)
	golden.Check(t, "testdata/golden_figure_bars.svg", got)
}

func TestGoldenSVGHeatmap(t *testing.T) {
	tb := NewTable("IPC grid", "workload", "VP off", "VP 4-wide", "VP 8-wide")
	tb.AddRow("gzip", 1.01, 1.13, 1.15)
	tb.AddRow("namd", 1.40, 1.72, 1.74)
	got, err := tb.RenderSVGHeatmap()
	if err != nil {
		t.Fatal(err)
	}
	wellFormed(t, got)
	golden.Check(t, "testdata/golden_figure_heatmap.svg", got)
}

func TestRenderSVGDeterministic(t *testing.T) {
	a, err := goldenTable().RenderSVG(1.0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := goldenTable().RenderSVG(1.0)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("two renders of the same table differ")
	}
}

func TestRenderSVGContent(t *testing.T) {
	svg, err := goldenTable().RenderSVG(1.0)
	if err != nil {
		t.Fatal(err)
	}
	out := string(svg)
	for _, want := range []string{
		"Figure 7: speedup over baseline",
		"namd &amp; friends", // XML escaping of user text
		"geomean",            // WithGeomean summary group
		"stroke-dasharray",   // dashed reference line
		"<title>",            // hover tooltips
		"EOLE_4_64",          // legend (≥2 series)
		"±0.040",             // CI in the tooltip
	} {
		if !strings.Contains(out, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	// CI whiskers: the ±0.04 row draws three extra ink-colored lines.
	if strings.Count(out, `stroke="`+svgInk2+`"`) < 6 {
		t.Errorf("expected whisker lines for CI rows:\n%s", out)
	}
}

func TestRenderSVGSingleSeriesNoLegend(t *testing.T) {
	tb := NewTable("IPC", "benchmark", "ipc")
	tb.AddRow("gzip", 1.1)
	svg, err := tb.RenderSVG(0)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(svg), `<rect x="52.00" y`) && strings.Contains(string(svg), "legend") {
		t.Error("single series must not render a legend")
	}
	if strings.Contains(string(svg), "stroke-dasharray") {
		t.Error("ref<=0 must not draw a reference line")
	}
}

func TestRenderSVGEmpty(t *testing.T) {
	tb := NewTable("empty", "r", "a")
	if _, err := tb.RenderSVG(1); err == nil {
		t.Error("empty table must error")
	}
	if _, err := tb.RenderSVGHeatmap(); err == nil {
		t.Error("empty heatmap must error")
	}
}

func TestNiceStep(t *testing.T) {
	for _, tc := range []struct {
		max, want float64
	}{{1, 0.2}, {5, 1}, {2.2, 0.5}, {9, 2}, {0, 1}, {100, 20}} {
		if got := niceStep(tc.max); got != tc.want {
			t.Errorf("niceStep(%v) = %v, want %v", tc.max, got, tc.want)
		}
	}
}

func TestAddRowCIPanicsOnArity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tb := NewTable("T", "r", "a", "b")
	tb.AddRowCI("x", []float64{1, 2}, []float64{0.1})
}

func TestRowNames(t *testing.T) {
	tb := NewTable("T", "r", "a")
	tb.AddRow("x", 1)
	tb.AddRow("y", 2)
	if got := fmt.Sprint(tb.RowNames()); got != "[x y]" {
		t.Errorf("RowNames = %s", got)
	}
}
