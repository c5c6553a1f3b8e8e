// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments                    # everything (Tables 1-3, Figures 2-13)
//	experiments figure7 figure12   # selected artefacts
//	experiments -measure 300000 -warmup 100000 figure6
//	experiments -workloads namd,mcf figure7
//	experiments -sample-windows 8 -sample-warm 40000 figure7   # sampled sweeps
//	experiments -server http://coordinator:8080 figure10       # run sweeps on an eoled (a coordinator shards them)
//	experiments -figdir figs figure6 figure12                  # also write figs/<id>.svg and figs/<id>_heatmap.svg
//	experiments -artifact-dir /var/cache/eole -stats table3    # a repeat run simulates nothing
//
// Every artefact runs through one in-process simulation service: a
// cell several artefacts need is simulated once, and each workload is
// interpreted once and its µ-op trace replayed for every config.
// -artifact-dir keeps both results and traces on disk for later runs.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"

	"eole"
	"eole/internal/artifact"
	"eole/internal/experiments"
	"eole/internal/simsvc"
)

func main() {
	var (
		warmup  = flag.Uint64("warmup", 0, "warm-up µ-ops (default: harness default)")
		measure = flag.Uint64("measure", 0, "measured µ-ops (default: harness default)")
		wls     = flag.String("workloads", "", "comma-separated benchmark subset")
		chart   = flag.Bool("chart", false, "render figures as ASCII bar charts")
		figdir  = flag.String("figdir", "", "additionally write each tabular artefact as <id>.svg and <id>_heatmap.svg into this directory")
		par     = flag.Int("parallelism", 0, "concurrent simulations (0 = GOMAXPROCS)")
		artDir  = flag.String("artifact-dir", "", "persist simulation results and recorded µ-op traces under this directory, reused across runs")
		stats   = flag.Bool("stats", false, "print simulation-service statistics at exit")

		sampleWin  = flag.Int("sample-windows", 0, "run every sweep sampled with this many measurement windows (0 = full runs)")
		sampleSkip = flag.Uint64("sample-skip", 0, "per-window fast-forward µ-ops with no state updates")
		sampleWarm = flag.Uint64("sample-warm", 40_000, "per-window functional-warming µ-ops")

		server = flag.String("server", "", "run every sweep on this eoled's /v1/sweep; a coordinator shards it across its fleet (figures are identical to local runs — the simulator is deterministic)")
	)
	flag.Parse()

	opts := experiments.DefaultOpts()
	// Ctrl-C or SIGTERM cancels the sweep in flight, local or on the
	// server, and the run fails with it. Notify also takes back a SIGINT
	// the shell handed down ignored.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	opts.Context = ctx
	var svc *simsvc.Service
	if *server != "" {
		// The server replaces the local service entirely: it runs (and
		// caches) every simulation, so the local-service flags are inert
		// and no worker pool is spun up here. Its own numbers are on its
		// /v1/stats (a coordinator's fleet on /v1/cluster/workers).
		for _, f := range []struct {
			set  bool
			name string
		}{{*par != 0, "-parallelism"}, {*artDir != "", "-artifact-dir"}, {*stats, "-stats"}} {
			if f.set {
				fmt.Fprintf(os.Stderr, "experiments: %s has no effect with -server (the server owns caching, tracing and its statistics)\n", f.name)
			}
		}
		opts.Server = *server
	} else {
		// One shared service across every artefact: the baseline columns
		// that figures re-run are simulated once and served from cache,
		// and each workload is interpreted once per run instead of once
		// per (figure, config). With -artifact-dir both outlive the run.
		store, err := artifact.Open(artifact.Options{Dir: *artDir})
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		svc, err = simsvc.New(simsvc.Options{Parallelism: *par, Artifacts: store})
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer svc.Close()
		opts.Service = svc
	}
	if *warmup > 0 {
		opts.Warmup = *warmup
	}
	if *measure > 0 {
		opts.Measure = *measure
	}
	if *wls != "" {
		opts.Workloads = strings.Split(*wls, ",")
	}
	if *sampleWin > 0 {
		spec := eole.SamplingSpec{Windows: *sampleWin, Skip: *sampleSkip, Warm: *sampleWarm}
		if err := spec.Validate(); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		opts.Sampling = &spec
	}

	ids := flag.Args()
	if len(ids) == 0 {
		ids = experiments.IDs()
	}
	if *figdir != "" {
		if err := os.MkdirAll(*figdir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}
	if err := render(os.Stdout, ids, opts, *figdir, *chart); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	if *stats && svc != nil {
		st := svc.Stats()
		fmt.Fprintf(os.Stderr, "simsvc: %d sims run (%d sampled), %d cache hits (%d from disk), %d coalesced, %.0f µ-ops/s/worker over %s\n",
			st.SimsRun, st.SimsSampled, st.CacheHits, st.DiskHits, st.Coalesced, st.UopsPerSec, st.SimWallTime.Round(1e6))
		fmt.Fprintf(os.Stderr, "traces: %d recorded in %s, %d replays, %d fallbacks\n",
			st.TracesRecorded, st.TraceRecordTime.Round(1e6), st.TraceReplays, st.TraceFallbacks)
	}
}

// render builds each artefact once and prints it to w: a tabular one
// as ASCII bar charts under chart, as text otherwise; under figdir a
// tabular artefact is also written as SVG.
func render(w io.Writer, ids []string, o experiments.Opts, figdir string, chart bool) error {
	for _, id := range ids {
		a, err := experiments.ByID(id, o)
		if err != nil {
			return err
		}
		if figdir != "" && a.Table != nil {
			paths, err := writeFigure(figdir, a)
			if err != nil {
				return err
			}
			for _, path := range paths {
				fmt.Fprintf(os.Stderr, "experiments: wrote %s\n", path)
			}
		}
		if !chart || a.Table == nil {
			fmt.Fprintln(w, a.Text)
			continue
		}
		for _, col := range a.Table.Columns {
			out, err := a.Table.RenderChart(col, 1.0, 60)
			if err != nil {
				return err
			}
			fmt.Fprintln(w, out)
		}
	}
	return nil
}

// writeFigure writes a tabular artefact into dir as <id>.svg, a bar
// chart (speedup figures draw the 1.0 reference line, IPC and accuracy
// tables none), and as <id>_heatmap.svg. It returns the paths written.
func writeFigure(dir string, a experiments.Artifact) ([]string, error) {
	bars, err := a.Table.RenderSVG(a.RefLine)
	if err != nil {
		return nil, err
	}
	heat, err := a.Table.RenderSVGHeatmap()
	if err != nil {
		return nil, err
	}
	paths := []string{filepath.Join(dir, a.ID+".svg"), filepath.Join(dir, a.ID+"_heatmap.svg")}
	for i, svg := range [][]byte{bars, heat} {
		if err := os.WriteFile(paths[i], svg, 0o644); err != nil {
			return nil, err
		}
	}
	return paths, nil
}
