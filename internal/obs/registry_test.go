package obs

import (
	"math"
	"net/http/httptest"
	"strings"
	"testing"
)

func expose(t *testing.T, r *Registry) string {
	t.Helper()
	var b strings.Builder
	if _, err := r.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "A test counter.")
	c.Inc()
	c.Add(2)
	c.Add(-5) // ignored: counters only go up
	g := r.Gauge("test_depth", "A test gauge.")
	g.Set(7)
	g.Add(-3)
	out := expose(t, r)
	for _, want := range []string{
		"# HELP test_total A test counter.",
		"# TYPE test_total counter",
		"test_total 3",
		"# HELP test_depth A test gauge.",
		"# TYPE test_depth gauge",
		"test_depth 4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	if err := Lint([]byte(out)); err != nil {
		t.Errorf("lint: %v", err)
	}
}

func TestCounterSet(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("synced_total", "Synced from an external snapshot.")
	c.Set(42)
	if out := expose(t, r); !strings.Contains(out, "synced_total 42") {
		t.Errorf("Set not reflected:\n%s", out)
	}
}

func TestVecLabels(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("http_total", "Requests.", "path", "code")
	v.With("/v1/simulate", "200").Add(3)
	v.With("/v1/simulate", "429").Inc()
	v.With(`/weird"path\n`, "200").Inc()
	out := expose(t, r)
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
	r := NewRegistry()
	r.GaugeVec("esc", "Escapes.", "k").With("a\nb\"c\\d").Set(1)
	out := expose(t, r)
	if !strings.Contains(out, `esc{k="a\nb\"c\\d"} 1`) {
		t.Errorf("bad escaping:\n%s", out)
	}
	if err := Lint([]byte(out)); err != nil {
		t.Errorf("lint: %v", err)
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "Latency.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	out := expose(t, r)
	for _, want := range []string{
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 3`,
		`lat_seconds_bucket{le="10"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		`lat_seconds_sum 56.05`,
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
	r := NewRegistry()
	hv := r.HistogramVec("d_seconds", "Latency.", nil, "path")
	hv.With("/a").Observe(0.003)
	out := expose(t, r)
	if !strings.Contains(out, `d_seconds_bucket{path="/a",le="0.005"} 1`) {
		t.Errorf("default buckets not applied:\n%s", out)
	}
	if err := Lint([]byte(out)); err != nil {
		t.Errorf("lint: %v", err)
	}
}

func TestBucketNormalization(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("n_seconds", "Latency.", []float64{1, 0.5, 1, math.Inf(1)})
	h.Observe(0.7)
	out := expose(t, r)
	if strings.Count(out, `le="1"`) != 1 {
		t.Errorf("duplicate buckets survived:\n%s", out)
	}
	if strings.Count(out, `le="+Inf"`) != 1 {
		t.Errorf("explicit +Inf not deduped:\n%s", out)
	}
}

func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	v := 3.5
	r.GaugeFunc("fn_gauge", "Func-backed.", func() float64 { return v })
	if out := expose(t, r); !strings.Contains(out, "fn_gauge 3.5") {
		t.Errorf("func gauge:\n%s", out)
	}
	v = 4
	if out := expose(t, r); !strings.Contains(out, "fn_gauge 4") {
		t.Errorf("func gauge not re-read:\n%s", out)
	}
}

func TestOnGather(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("synced", "Synced at gather time.")
	n := 0.0
	r.OnGather(func() { n++; g.Set(n) })
	if out := expose(t, r); !strings.Contains(out, "synced 1") {
		t.Errorf("first gather:\n%s", out)
	}
	if out := expose(t, r); !strings.Contains(out, "synced 2") {
		t.Errorf("second gather:\n%s", out)
	}
}

func TestDeterministicOrder(t *testing.T) {
	r := NewRegistry()
	r.Gauge("zzz", "Last.").Set(1)
	r.Gauge("aaa", "First.").Set(1)
	v := r.CounterVec("mid", "Middle.", "l")
	v.With("b").Inc()
	v.With("a").Inc()
	out1 := expose(t, r)
	out2 := expose(t, r)
	if out1 != out2 {
		t.Fatalf("expositions differ:\n%s\n---\n%s", out1, out2)
	}
	if strings.Index(out1, "aaa") > strings.Index(out1, "zzz") {
		t.Errorf("families not sorted:\n%s", out1)
	}
	if strings.Index(out1, `mid{l="a"}`) > strings.Index(out1, `mid{l="b"}`) {
		t.Errorf("series not sorted:\n%s", out1)
	}
}

func TestRegisterIdempotent(t *testing.T) {
	r := NewRegistry()
	r.Counter("same_total", "Help.").Inc()
	r.Counter("same_total", "Help.").Inc()
	if out := expose(t, r); !strings.Contains(out, "same_total 2") {
		t.Errorf("re-registration must return the same series:\n%s", out)
	}
}

func TestRegisterPanics(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	r := NewRegistry()
	mustPanic("bad metric name", func() { r.Counter("1bad", "x") })
	mustPanic("bad label name", func() { r.CounterVec("ok_total", "x", "1bad") })
	r.Counter("dup_total", "x")
	mustPanic("type redefinition", func() { r.Gauge("dup_total", "x") })
	v := r.CounterVec("lv_total", "x", "a", "b")
	mustPanic("label arity", func() { v.With("only-one") })
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("h_total", "Handler test.").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != ExpositionContentType {
		t.Errorf("Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "h_total 1") {
		t.Errorf("body:\n%s", rec.Body.String())
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
	r := NewRegistry()
	RegisterRuntimeMetrics(r)
	out := expose(t, r)
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
