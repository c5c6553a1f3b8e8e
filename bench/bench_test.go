package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"eole/internal/simsvc"
)

var update = flag.Bool("update", false, "rewrite testdata/sim_cycles.json from the simulator")

func TestPercentileAndSampleCount(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	p50, _ := percentile(v, 50)
	p90, beyond := percentile(v, 90)
	if p50 != 50 || p90 != 90 || beyond != 10 {
		t.Fatalf("p50 %v p90 %v beyond %d, want 50 90 10", p50, p90, beyond)
	}
	if !tailOK(beyond) {
		t.Fatal("100 samples leave 10 beyond p90: the percentile stands")
	}
	_, beyond = percentile(v[:99], 90)
	if tailOK(beyond) {
		t.Fatalf("99 samples leave %d beyond p90: fewer than ten must not pass", beyond)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median of 1..4 = %v, want 2.5", got)
	}
}

// Values checked against Python's statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 11, 12, 13, 14, 15, 16, 17, 18, 19})
	if q1 != 11.75 || q3 != 17.25 {
		t.Fatalf("ten values: q1 %v q3 %v, want 11.75 17.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q3 != 3 {
		t.Fatalf("three values: q1 %v q3 %v, want 1 3", q1, q3)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	sp := func(id, parent, name string, start, end int64) span {
		return span{TraceID: "t", SpanID: id, ParentID: parent, Name: name, StartUnixNS: start, EndUnixNS: end}
	}
	self := selfTimes([]span{
		sp("r", "", "root", 0, 100),
		sp("a", "r", "cell", 10, 50), // overlaps b
		sp("b", "r", "cell", 30, 70),
		sp("c", "r", "cell", 90, 120), // outlives the parent: clipped at 100
		sp("g", "a", "leaf", 20, 30),
		sp("x", "", "root", 0, 5), // another trace's ID space is not needed: no children
	})
	// root: 100 - ([10,70] ∪ [90,100]) = 30, plus the childless 5.
	if got := self["root"]; got != 35 {
		t.Errorf("root self time %v, want 35", got)
	}
	// cells: a = 40-10, b = 40, c = 30.
	if got := self["cell"]; got != 100 {
		t.Errorf("cell self time %v, want 100", got)
	}
	if got := self["leaf"]; got != 10 {
		t.Errorf("leaf self time %v, want 10", got)
	}
}

func TestOpListSeeding(t *testing.T) {
	for _, w := range workloadTable(false) {
		a, b, c := newOpList(w, 7), newOpList(w, 7), newOpList(w, 8)
		differs := false
		for i := 0; i < 50; i++ {
			if !bytes.Equal(a.at(i).Body, b.at(i).Body) {
				t.Fatalf("%s: op %d differs under the same seed", w.Name, i)
			}
			differs = differs || !bytes.Equal(a.at(i).Body, c.at(i).Body)
		}
		if !differs {
			t.Errorf("%s: seeds 7 and 8 give the same 50 ops", w.Name)
		}
		if len(a.at(0).Reqs) != w.Cells {
			t.Errorf("%s: op holds %d cells, table says %d", w.Name, len(a.at(0).Reqs), w.Cells)
		}
	}
}

func TestDistinctKSameWork(t *testing.T) {
	table := workloadTable(false)
	seen := map[simsvc.Key]bool{}
	for _, w := range table {
		for _, k := range []int{0, 1, 2, kRange} {
			for _, r := range w.Op(k).Reqs {
				key := simsvc.KeyOf(r)
				if seen[key] && !w.Cluster { // cluster_sweep reuses cold_sweep's cells on purpose
					t.Fatalf("%s k=%d: content address repeats", w.Name, k)
				}
				seen[key] = true
				switch w.Name {
				case "cold_sweep":
					// Same detailed work and, after eoled's power-of-two
					// rounding, the same trace length for every k.
					if r.Warmup+r.Measure != coldUops {
						t.Fatalf("k=%d: warmup+measure = %d, want %d", k, r.Warmup+r.Measure, coldUops)
					}
				case "sampled_long":
					// Past the 1M-µ-op trace ceiling for every k: replay stays bypassed.
					if need := r.Sampling.StreamNeed(r.Warmup, r.Measure); need <= 1<<20 {
						t.Fatalf("k=%d: stream need %d fits a trace", k, need)
					}
				}
			}
		}
	}
}

func TestProcParsers(t *testing.T) {
	stat := "4242 (eoled (odd) name) S 1 4242 4242 0 -1 4194560 1000 0 0 0 " +
		"150 25 0 0 20 0 9 0 123456 1000000 2000 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	cpu, err := parseStatCPU(stat)
	if err != nil || cpu != 1750 {
		t.Fatalf("parseStatCPU = %v, %v; want 1750 ms (150+25 ticks)", cpu, err)
	}
	if _, err := parseStatCPU("garbage"); err == nil {
		t.Fatal("parseStatCPU accepted garbage")
	}
	status := "Name:\teoled\nVmPeak:\t  999999 kB\nVmHWM:\t  204800 kB\nVmRSS:\t  100000 kB\n"
	rss, err := parseVmHWM(status)
	if err != nil || rss != 200 {
		t.Fatalf("parseVmHWM = %v, %v; want 200 MiB", rss, err)
	}
	if _, err := parseVmHWM("Name:\teoled\n"); err == nil {
		t.Fatal("parseVmHWM accepted a status without VmHWM")
	}
}

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestManifestMatchesTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the harness defaults to %d", m.RunSeconds, defaultSeconds)
	}
	if !slices.Equal(m.Paths, []string{"bench"}) {
		t.Errorf("paths %v, want [bench]", m.Paths)
	}
	table := workloadTable(false)
	if len(m.Workloads) != len(table) {
		t.Fatalf("%d workloads, want %d", len(m.Workloads), len(table))
	}
	for i, w := range table {
		if m.Workloads[i].Name != w.Name || m.Workloads[i].Why != w.Why {
			t.Errorf("workload %d is %q, the table says %q (or the why differs)", i, m.Workloads[i].Name, w.Name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(m.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics, want %d", len(m.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, d := range endToEnd {
		g := m.EndToEnd[i]
		if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || g.Bound != d.Bound {
			t.Errorf("end-to-end %d is %+v, the table says %+v", i, g, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(m.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per-layer metrics, the table has %d (limit 128)", len(m.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, d := range perLayer {
		g := m.PerLayer[i]
		if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
			t.Errorf("per-layer %d is %+v, the table says %+v", i, g, d)
		}
		if d.Moves == "" {
			t.Errorf("%s names no end-to-end metric and workload it should move", d.Name)
		}
	}
	for _, d := range append(slices.Clone(endToEnd), perLayer...) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("metric %q (unit %q): bad or repeated name, or bad unit", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
		seen[d.Name] = true
	}
}

// A corrupted expected digest must fail ops and make the run's exit
// status non-zero.
func TestCorruptDigestFailsTheRun(t *testing.T) {
	w := workloadTable(true)[1] // hot_sweep
	body := []byte(`{"results": []}`)
	good := sha256.Sum256(body)
	win := &window{replies: []reply{{index: 0, sum: good}, {index: 1, sum: good}}}
	if verifyWindow(w, nil, win, reply{sum: good}, 1); win.replies[0].err != nil {
		t.Fatalf("matching digest failed: %v", win.replies[0].err)
	}
	bad := good
	bad[0] ^= 1
	verifyWindow(w, nil, win, reply{sum: bad}, 1)
	res := &result{Metrics: measurements{}}
	for _, r := range win.replies {
		res.Attempted++
		if r.err != nil {
			res.fail("%v", r.err)
		}
	}
	if res.Failed != 2 || res.correct() {
		t.Fatalf("corrupted digest: %d of %d ops failed, correct=%v", res.Failed, res.Attempted, res.correct())
	}
	var line struct {
		Correct bool `json:"correct"`
		Failed  int  `json:"failed"`
	}
	if err := json.Unmarshal([]byte(res.resultLine()), &line); err != nil || line.Correct || line.Failed != 2 {
		t.Fatalf("result line %s (err %v) does not report the failure", res.resultLine(), err)
	}
}

// The deep check compares served reports with in-process ones byte for
// byte: a reply that is right passes, one flipped digit fails.
func TestCheckReplyCatchesAWrongReport(t *testing.T) {
	w := workloadTable(true)[0] // cold_sweep, 4 cells
	o := w.Op(0)
	type cell struct {
		Config   string          `json:"config"`
		Workload string          `json:"workload"`
		Report   json.RawMessage `json:"report"`
	}
	var cells []cell
	for _, r := range o.Reqs {
		rep, err := simulateCell(r)
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells, cell{r.Config.Label(), r.Workload, rep})
	}
	w.VerifyCells = len(cells)
	body, err := json.MarshalIndent(map[string]any{"results": cells}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := checkReply(w, o, body, rand.New(rand.NewSource(1))); err != nil {
		t.Fatalf("a correct reply failed the check: %v", err)
	}
	wrong := bytes.Replace(body, []byte(`"cycles": `), []byte(`"cycles": 1`), 1)
	if err := checkReply(w, o, wrong, rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("a reply with a changed cycle count passed the check")
	}
	if err := checkReply(w, o, bytes.Replace(body, []byte(`"gzip"`), []byte(`"mcf"`), 1), rand.New(rand.NewSource(1))); err == nil {
		t.Fatal("a reply with a wrong label passed the check")
	}
}

// The pinned cycle counts are the simulator's own: -update rewrites
// them, which only a change to the model may need.
func TestPinnedCycles(t *testing.T) {
	cells := workloadTable(false)[0].Op(0).Reqs
	got := map[string]uint64{}
	for _, c := range cells {
		r, err := simulate(c)
		if err != nil {
			t.Fatal(err)
		}
		got[cellName(c)] = r.Cycles
	}
	if *update {
		b, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("testdata/sim_cycles.json", append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := pinnedCycles()
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("%d pinned cells, the cold op has %d", len(want), len(got))
	}
	for name, cycles := range got {
		if want[name] != cycles {
			t.Errorf("%s: %d cycles, pinned %d", name, cycles, want[name])
		}
	}
}

// The smoke run walks spawn, prime, window, checks, traced passes,
// ladder and teardown end to end against real eoled processes.
func TestSmokeRunEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and spawns eoled")
	}
	e, err := newEnv()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	results, err := e.runAll(ctx, workloadTable(true), 1, time.Second, 1, true, true)
	e.close()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 5 {
		t.Fatalf("%d results, want 4 workloads and the traced run", len(results))
	}
	for _, r := range results {
		if !r.correct() || r.Attempted == 0 {
			t.Errorf("%s: %d of %d ops failed: %v", r.Workload, r.Failed, r.Attempted, r.Errors)
		}
		defs := endToEnd
		if r.Traced {
			defs = perLayer
		}
		for _, d := range defs {
			mm, ok := r.Metrics[d.Name]
			if !ok || (mm.Null == "" && (math.IsNaN(mm.Value) || math.IsInf(mm.Value, 0))) {
				t.Errorf("%s: metric %s missing or not a number", r.Workload, d.Name)
			}
		}
	}
	// Nothing left behind: every eoled gone, the scratch directory removed.
	if len(e.spawned) < 4+clusterWorkers {
		t.Errorf("only %d eoled processes were spawned", len(e.spawned))
	}
	for _, pid := range e.spawned {
		if err := syscall.Kill(pid, 0); err != syscall.ESRCH {
			t.Errorf("eoled pid %d still there after the run (kill -0: %v)", pid, err)
		}
	}
	if _, err := os.Stat(e.scratch); !os.IsNotExist(err) {
		t.Errorf("scratch directory %s left behind", e.scratch)
	}
	for _, name := range []string{"budget.md", "trace-cold_sweep.json", "trace-hot_sweep.json", "trace-sampled_long.json", "trace-cluster_sweep.json"} {
		if st, err := os.Stat(filepath.Join(e.outDir, name)); err != nil || st.Size() == 0 {
			t.Errorf("%s not written: %v", name, err)
		}
	}
}
