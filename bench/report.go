package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// spanSource names, for each span eoled emits, the traced pass of the
// one workload where it dominates.
var spanSource = []struct{ span, workload string }{
	{"http.request", "hot_sweep"},
	{"cache.probe", "cold_sweep"},
	{"queue.wait", "cold_sweep"},
	{"trace.resolve", "cold_sweep"},
	{"sim.warm", "cold_sweep"},
	{"sim.detailed", "cold_sweep"},
	{"sim.sampled", "sampled_long"},
	{"job.run", "cluster_sweep"},
	{"job.cell", "cluster_sweep"},
	{"dispatch", "cluster_sweep"},
	{"artifact.fetch", "cluster_sweep"},
}

// runTraced produces every per-layer metric: a traced and an untraced
// one-client pass per workload over the same fixed op list, then the
// in-process ladder. It writes bench/out/trace-<workload>.json and
// bench/out/budget.md. The per-layer metrics are properties of the
// layers, so the run is the same whichever workload asked for it.
func (e *env) runTraced(ctx context.Context, table []workload, seed int64, smoke bool) (*result, error) {
	res := &result{Workload: "all", Seed: seed, Traced: true, Metrics: measurements{}, Notes: map[string]string{}}
	m := res.Metrics
	tracedP, plainP := map[string]*pass{}, map[string]*pass{}
	var probes hitProbes
	for _, w := range table {
		p, err := e.runPass(ctx, w, seed, w.TracedOps, true, nil)
		if err != nil {
			return nil, err
		}
		tracedP[w.Name] = p
		if err := writeSpans(filepath.Join(e.outDir, "trace-"+w.Name+".json"), p.spans); err != nil {
			return nil, err
		}
		if w.Name == "sampled_long" {
			continue // nothing is derived from its untraced twin
		}
		var extra func(*fleet, *pass) error
		if w.SameOp {
			extra = func(f *fleet, _ *pass) (err error) {
				probes, err = probeHot(ctx, f, newOpList(w, seed))
				return err
			}
		}
		if plainP[w.Name], err = e.runPass(ctx, w, seed, w.TracedOps, false, extra); err != nil {
			return nil, err
		}
	}
	for _, ps := range []map[string]*pass{tracedP, plainP} {
		for _, p := range ps {
			res.Attempted += p.cells / p.w.Cells
			for _, f := range p.failed {
				res.fail("%s", f)
			}
		}
	}

	coldT, hotT, clusterT := tracedP["cold_sweep"], tracedP["hot_sweep"], tracedP["cluster_sweep"]
	coldU, hotU, clusterU := plainP["cold_sweep"], plainP["hot_sweep"], plainP["cluster_sweep"]

	// Exact counts over the fixed traced op lists.
	m.set("simsvc.sims_run", float64(coldT.stats.SimsRun))
	m.set("simsvc.coalesced", float64(coldT.stats.Coalesced))
	m.set("simsvc.cache_hits", float64(hotT.stats.CacheHits))
	m.set("cluster.cells_dispatched", float64(clusterT.cluster.Dispatched))
	m.set("cluster.requeued", float64(clusterT.cluster.Requeued))
	m.set("cluster.throttled", float64(clusterT.cluster.Throttled))
	if got, want := coldT.stats.SimsRun, uint64(coldT.cells); got != want {
		res.fail("cold_sweep traced pass simulated %d cells, want %d", got, want)
	}
	if got, want := hotT.stats.CacheHits, uint64(hotT.cells); got != want {
		res.fail("hot_sweep traced pass hit the cache %d times, want %d", got, want)
	}
	if got, want := clusterT.stats.SimsRun, uint64(clusterT.cells); got != want {
		res.fail("cluster_sweep traced pass simulated %d cells, want %d", got, want)
	}

	m.set("eoled.start_ms", median([]float64{coldT.startMS, coldU.startMS, hotT.startMS, hotU.startMS, tracedP["sampled_long"].startMS}))
	m.set("eoled.simulate_hit_us", probes.simulateUS)
	m.set("eoled.etag_304_us", probes.etagUS)
	m.set("obs.metrics_scrape_ms", probes.scrapeMS)
	m.set("eoled.resp_bytes_per_cell", float64(hotU.respLen)/float64(hotU.w.Cells))
	m.set("obs.trace_overhead_ratio.cold_sweep", coldT.cellsPerS()/coldU.cellsPerS())
	m.set("obs.trace_overhead_ratio.hot_sweep", hotT.cellsPerS()/hotU.cellsPerS())
	serverSpans := 0
	for _, s := range coldT.spans {
		if s.Name != "client.op" {
			serverSpans++
		}
	}
	m.set("obs.spans_per_cell", float64(serverSpans)/float64(coldT.cells))

	perCell := func(p *pass) float64 { return p.opMedianMS() / float64(p.w.Cells) }
	m.set("cluster.added_ms_per_cell", perCell(clusterU)-perCell(coldU))
	m.set("cluster.coord_cpu_ms_per_cell", clusterU.coordMS/float64(clusterU.cells))
	m.set("ladder.L4_http_ms_per_cell", coldU.cpuMS/float64(coldU.cells))
	m.set("ladder.L5_cluster_ms_per_cell", clusterU.cpuMS/float64(clusterU.cells))

	self := map[string]map[string]time.Duration{}
	for name, p := range tracedP {
		self[name] = selfTimes(p.spans)
	}
	for _, src := range spanSource {
		name := "span." + src.span + ".self_ms_per_cell"
		d, ok := self[src.workload][src.span]
		if !ok {
			m.null(name, "eoled emitted no "+src.span+" span on "+src.workload)
			continue
		}
		m.set(name, ms(d)/float64(tracedP[src.workload].cells))
	}
	dispatches := 0
	for _, s := range clusterT.spans {
		if s.Name == "dispatch" {
			dispatches++
		}
	}
	if dispatches == 0 {
		m.null("cluster.dispatch_self_ms", "the coordinator emitted no dispatch span")
	} else {
		m.set("cluster.dispatch_self_ms", ms(self["cluster_sweep"]["dispatch"])/float64(dispatches))
	}

	cold, hot := table[0].Op(0).Reqs, table[1].Op(0).Reqs
	if smoke {
		cold = cold[:2]
	}
	hotSweepUS, err := e.runLadder(ctx, cold, hot, ladderSizeFor(smoke), res)
	if err != nil {
		return nil, err
	}
	m.set("eoled.http_added_us_per_op.hit", 1000*hotU.opMedianMS()-hotSweepUS)

	b := budget{m: m, self: self, traced: tracedP, plain: plainP}
	if err := os.WriteFile(filepath.Join(e.outDir, "budget.md"), []byte(b.render()), 0o644); err != nil {
		return nil, err
	}
	return res, nil
}

// budget renders budget.md: per workload, where the CPU time of one
// cell goes, once from the ladder (each rung minus the rung below) and
// once from span self time, side by side.
type budget struct {
	m             measurements
	self          map[string]map[string]time.Duration
	traced, plain map[string]*pass
}

type budgetRow struct {
	layer    string
	ladderMS float64  // CPU ms per cell from the ladder
	spans    []string // span names whose self time belongs to the layer
}

func (b budget) render() string {
	v := func(name string) float64 { return b.m[name].Value }
	l0, l1 := v("ladder.L0_execute_ms_per_cell"), v("ladder.L1_replay_ms_per_cell")
	l4, l5 := v("ladder.L4_http_ms_per_cell"), v("ladder.L5_cluster_ms_per_cell")
	// What simsvc and jobs add is read from the tiny cells: between the
	// full rungs it is smaller than their noise.
	simsvc, jobsAdded := v("simsvc.miss_added_us_per_cell")/1000, v("jobs.added_us_per_cell")/1000
	hotU := b.plain["hot_sweep"]
	hotTotal := hotU.cpuMS / float64(hotU.cells)
	hotSimsvc := v("simsvc.sweep_hit_us_per_cell") / 1000
	hotEncode := v("eole.report_encode_us") / 1000
	none := math.NaN()

	var sb strings.Builder
	sb.WriteString("# Budget: where one cell's CPU time goes\n\n")
	sb.WriteString("Ladder columns are host CPU ms per cell: a rung minus the rung below is what the layer adds, and the\n")
	sb.WriteString("last row of each table is the remainder of the measured total, so a wrong part shows up there.\n")
	sb.WriteString("Span columns are self time per cell from the traced pass: a span's duration minus the part its\n")
	sb.WriteString("child spans cover. Self time is wall time, so for a layer that waits (HTTP, dispatch) it is an upper\n")
	sb.WriteString("bound on its CPU. A layer is flagged `differ` when both columns have it, one of its shares is at\n")
	sb.WriteString("least 5 %, and the shares differ by more than 20 % of the larger.\n")
	b.table(&sb, "cold_sweep", l4, []budgetRow{
		{"core, trace-driven (L1)", l1, []string{"sim.warm", "sim.detailed"}},
		{"trace resolve (recorded in the prime)", none, []string{"trace.resolve"}},
		{"simsvc miss path (L2-L0, tiny cells)", simsvc, []string{"cache.probe"}},
		{"eoled handler + HTTP (L4 - rows above)", l4 - l1 - simsvc, []string{"http.request"}},
	})
	fmt.Fprintf(&sb, "\nExecute-driven, the core row would be L0 = %.4f ms: replay saves %.4f ms per cell (trace.replay_speedup %.2f).\n", l0, l0-l1, v("trace.replay_speedup"))
	// The cross-check the ladder exists for: the eoled row estimated
	// from the hot path instead of as a remainder.
	est := l1 + simsvc + hotTotal - hotSimsvc
	fmt.Fprintf(&sb, "Cross-check: L1 + simsvc + the hot path's handler cost per cell = %.4f ms against the measured %.4f ms (ratio %.2f).\n", est, l4, est/l4)
	b.table(&sb, "hot_sweep", hotTotal, []budgetRow{
		{"simsvc hit path (in-process cached sweep)", hotSimsvc, nil},
		{"eole.Report JSON encode (compact)", hotEncode, nil},
		{"eoled handler + HTTP (total - rows above)", hotTotal - hotSimsvc - hotEncode, nil},
	})
	fmt.Fprintf(&sb, "\nThe one span of a cached sweep, http.request, covers all three rows: %.4f ms self time per cell.\n", ms(b.self["hot_sweep"]["http.request"])/float64(b.traced["hot_sweep"].cells))
	fmt.Fprintf(&sb, "Cross-check: simsvc + encode explain %.0f %% of the measured total.\n", 100*(hotSimsvc+hotEncode)/hotTotal)
	b.table(&sb, "cluster_sweep", l5, []budgetRow{
		{"the same cells on one eoled (L4)", l4, []string{"sim.warm", "sim.detailed", "trace.resolve", "cache.probe"}},
		{"jobs on the workers (L3-L2, tiny cells)", jobsAdded, []string{"job.run", "job.cell"}},
		{"artifact peer hop", none, []string{"artifact.fetch"}},
		{"cluster dispatch + second HTTP hop (L5 - rows above)", l5 - l4 - jobsAdded, []string{"dispatch"}},
	})
	return sb.String()
}

func (b budget) table(sb *strings.Builder, workload string, total float64, rows []budgetRow) {
	self := b.self[workload]
	cells := float64(b.traced[workload].cells)
	// The span total is the self time of the spans the rows name: what
	// they leave out is waiting (queue.wait, the event-stream requests
	// of a cluster) and the harness's own span.
	var spanTotal float64
	for _, r := range rows {
		for _, name := range r.spans {
			spanTotal += ms(self[name]) / cells
		}
	}
	fmt.Fprintf(sb, "\n## %s\n\nMeasured total: %.4f CPU ms per cell (one client, tracing off). Span self time of the rows: %.4f ms per cell.\n\n", workload, total, spanTotal)
	sb.WriteString("| layer | ladder ms/cell | ladder share | span self ms/cell | span share | flag |\n|---|---|---|---|---|---|\n")
	for _, r := range rows {
		spanMS := math.NaN()
		if r.spans != nil {
			spanMS = 0
			for _, name := range r.spans {
				spanMS += ms(self[name]) / cells
			}
		}
		ladShare, spanShare := r.ladderMS/total, spanMS/spanTotal
		flag := ""
		if larger := math.Max(math.Abs(ladShare), spanShare); larger >= 0.05 && math.Abs(ladShare-spanShare) > 0.2*larger {
			flag = "differ" // a NaN share compares false: no flag
		}
		fmt.Fprintf(sb, "| %s | %s | %s | %s | %s | %s |\n", r.layer, num(r.ladderMS), pct(ladShare), num(spanMS), pct(spanShare), flag)
	}
}

func num(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%.4f", v)
}

func pct(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%.1f %%", 100*v)
}

// print writes the result as a table: every metric by name with its
// unit, then the failures.
func (r *result) print(w io.Writer) {
	defs := endToEnd
	kind := "end-to-end, tracing off"
	if r.Traced {
		defs, kind = perLayer, "per-layer, traced passes and ladder"
	}
	fmt.Fprintf(w, "\n== %s (%s) seed %d\n", r.Workload, kind, r.Seed)
	for _, d := range defs {
		mm, ok := r.Metrics[d.Name]
		switch {
		case !ok:
			fmt.Fprintf(w, "  %-40s %16s %-6s not measured\n", d.Name, "null", d.Unit)
		case mm.Null != "":
			fmt.Fprintf(w, "  %-40s %16s %-6s %s\n", d.Name, "null", d.Unit, mm.Null)
		default:
			fmt.Fprintf(w, "  %-40s %16.6g %-6s %s\n", d.Name, mm.Value, d.Unit, r.Notes[d.Name])
		}
	}
	fmt.Fprintf(w, "  ops attempted %d, failed %d, correct %v\n", r.Attempted, r.Failed, r.correct())
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  FAILED: %s\n", e)
	}
}

// resultLine is the last line of a contract run: the one JSON object
// the driver reads. Values keep all their digits.
func (r *result) resultLine() string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	metrics := map[string]mv{}
	for _, d := range defs {
		v := r.Metrics[d.Name].Value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0 // JSON has no such number; print() shows what was measured
		}
		metrics[d.Name] = mv{v, d.Unit}
	}
	b, err := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{r.correct(), r.Attempted, r.Failed, metrics})
	if err != nil {
		panic(err) // plain numbers and strings
	}
	return string(b)
}
