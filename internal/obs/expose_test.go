package obs

import (
	"math"
	"net/http/httptest"
	"strings"
	"testing"
)

func expose(t *testing.T, e *Exposition) string {
	t.Helper()
	var b strings.Builder
	if _, err := e.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestCounterGaugeExposition(t *testing.T) {
	var e Exposition
	e.Counter("test_total", "A test counter.", 3)
	e.Gauge("test_depth", "A test gauge.", 4)
	e.Family("empty_total", "Declared, never sampled.", "counter")
	out := expose(t, &e)
	for _, want := range []string{
		"# HELP test_total A test counter.\n# TYPE test_total counter\ntest_total 3\n",
		"# HELP test_depth A test gauge.\n# TYPE test_depth gauge\ntest_depth 4\n",
		// A family with no series still declares itself.
		"# HELP empty_total Declared, never sampled.\n# TYPE empty_total counter\n# HELP test_depth",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if err := Lint([]byte(out)); err != nil {
		t.Errorf("lint: %v", err)
	}
}

func TestVecLabels(t *testing.T) {
	var e Exposition
	reqs := e.Family("http_total", "Requests.", "counter")
	reqs.Add(3, "path", "/v1/simulate", "code", "200")
	reqs.Add(1, "path", "/v1/simulate", "code", "429")
	reqs.Add(1, "path", `/weird"path\n`, "code", "200")
	out := expose(t, &e)
	for _, want := range []string{
		`http_total{path="/v1/simulate",code="200"} 3`,
		`http_total{path="/v1/simulate",code="429"} 1`,
		`http_total{path="/weird\"path\\n",code="200"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if err := Lint([]byte(out)); err != nil {
		t.Errorf("lint: %v", err)
	}
}

func TestLabelEscaping(t *testing.T) {
	var e Exposition
	e.Family("esc", "Escapes \\ and\nnewlines.", "gauge").Add(1, "k", "a\nb\"c\\d")
	out := expose(t, &e)
	if !strings.Contains(out, `esc{k="a\nb\"c\\d"} 1`) {
		t.Errorf("bad label escaping:\n%s", out)
	}
	if !strings.Contains(out, `# HELP esc Escapes \\ and\nnewlines.`) {
		t.Errorf("bad help escaping:\n%s", out)
	}
	if err := Lint([]byte(out)); err != nil {
		t.Errorf("lint: %v", err)
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram([]float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.1, 0.5, 5, 50} {
		h.Observe(v)
	}
	var e Exposition
	e.Family("lat_seconds", "Latency.", "histogram").AddHistogram(h)
	out := expose(t, &e)
	for _, want := range []string{
		// A bound is inclusive: 0.1 lands in le="0.1".
		`lat_seconds_bucket{le="0.1"} 2`,
		`lat_seconds_bucket{le="1"} 3`,
		`lat_seconds_bucket{le="10"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		`lat_seconds_sum 55.65`,
		`lat_seconds_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if err := Lint([]byte(out)); err != nil {
		t.Errorf("lint: %v", err)
	}
}

func TestHistogramVecDefaultBuckets(t *testing.T) {
	h := NewHistogram(DefBuckets)
	h.Observe(0.003)
	var e Exposition
	e.Family("d_seconds", "Latency by path.", "histogram").AddHistogram(h, "path", "/a")
	out := expose(t, &e)
	// Series labels come before le.
	for _, want := range []string{
		`d_seconds_bucket{path="/a",le="0.0025"} 0`,
		`d_seconds_bucket{path="/a",le="0.005"} 1`,
		`d_seconds_bucket{path="/a",le="10"} 1`,
		`d_seconds_count{path="/a"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if err := Lint([]byte(out)); err != nil {
		t.Errorf("lint: %v", err)
	}
}

func TestDeterministicOrder(t *testing.T) {
	build := func() *Exposition {
		var e Exposition
		e.Gauge("zzz", "Last.", 1)
		e.Gauge("aaa", "First.", 1)
		mid := e.Family("mid", "Middle.", "counter")
		mid.Add(1, "l", "b")
		mid.Add(1, "l", "a")
		return &e
	}
	out1, out2 := expose(t, build()), expose(t, build())
	if out1 != out2 {
		t.Fatalf("expositions differ:\n%s\n---\n%s", out1, out2)
	}
	if strings.Index(out1, "aaa") > strings.Index(out1, "mid") || strings.Index(out1, "mid") > strings.Index(out1, "zzz") {
		t.Errorf("families not sorted:\n%s", out1)
	}
	if strings.Index(out1, `mid{l="a"}`) > strings.Index(out1, `mid{l="b"}`) {
		t.Errorf("series not sorted:\n%s", out1)
	}
}

func TestHandler(t *testing.T) {
	scrapes := 0
	h := Handler(func(e *Exposition) {
		scrapes++
		e.Counter("h_total", "Handler test.", float64(scrapes))
	})
	for want := 1; want <= 2; want++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
		if ct := rec.Header().Get("Content-Type"); ct != ExpositionContentType {
			t.Errorf("Content-Type = %q", ct)
		}
		// Each scrape reads its values afresh.
		if line := "h_total " + formatFloat(float64(want)) + "\n"; !strings.Contains(rec.Body.String(), line) {
			t.Errorf("scrape %d body:\n%s", want, rec.Body.String())
		}
	}
}

func TestFormatFloat(t *testing.T) {
	for _, tc := range []struct {
		v    float64
		want string
	}{
		{1, "1"},
		{0.25, "0.25"},
		{math.Inf(1), "+Inf"},
		{math.Inf(-1), "-Inf"},
	} {
		if got := formatFloat(tc.v); got != tc.want {
			t.Errorf("formatFloat(%v) = %q, want %q", tc.v, got, tc.want)
		}
	}
}

func TestRuntimeMetrics(t *testing.T) {
	var e Exposition
	AddRuntimeMetrics(&e)
	out := expose(t, &e)
	for _, want := range []string{"go_goroutines", "go_mem_heap_alloc_bytes", "go_mem_heap_goal_bytes", "go_gc_cycles_total"} {
		if !strings.Contains(out, want) {
			t.Errorf("runtime metrics missing %q", want)
		}
	}
	if strings.Contains(out, "go_goroutines 0\n") {
		t.Errorf("goroutine count must be non-zero:\n%s", out)
	}
	if strings.Contains(out, "go_mem_heap_goal_bytes 0\n") {
		t.Errorf("heap goal must be non-zero:\n%s", out)
	}
	if err := Lint([]byte(out)); err != nil {
		t.Errorf("lint: %v", err)
	}
}
