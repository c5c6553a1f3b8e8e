// Command eolesim runs one benchmark on one machine configuration and
// prints the report.
//
// Usage:
//
//	eolesim -config EOLE_4_64 -workload namd -warmup 50000 -n 200000
//	eolesim -config EOLE_4_64 -workload namd -json
//	eolesim -config EOLE_4_64 -workload long-dram -sample-windows 8 -sample-warm 40000
//	eolesim -config my_machine.json -workload namd           # custom config from JSON
//	eolesim -config EOLE_4_64 -dump-config > my_machine.json # export a config to edit
//	eolesim -list
//	eolesim -disasm mcf
//	eolesim -config EOLE_4_64 -workload mcf -pipetrace 40
//	eolesim -grid grid.json -workloads gzip,art -json            # local sweep
//	eolesim -server http://coordinator:8080 -grid grid.json -workloads gzip,art -json
//
// Sweeps: -grid (a JSON file or inline object of the /v1/sweep grid
// form, {"base_name":...,"axes":[...]}) and/or -workloads (comma
// separated) switch eolesim into sweep mode: every (config, workload)
// cell is simulated — through an in-process service by default, which
// interprets each workload once and replays its µ-op trace for every
// config, or as one POST /v1/sweep to the eoled at -server (a
// coordinator shards it across its fleet). Remote results are
// byte-identical to the local run (-json emits the report array in
// cell order either way, so the two can be diffed directly). With
// -server, explicit nonzero -warmup and -n are required: a zero would
// be resolved by the server's own defaults, breaking the local/remote
// equivalence.
//
// Custom configurations: -config accepts either a named paper
// configuration or a path to a JSON file holding a Config object
// (the format -dump-config emits). Edit any field — issue width, IQ
// size, PRF banking, EOLE features — and the file is validated before
// the run; reports label an unnamed custom config as
// "custom-<fingerprint prefix>".
//
// Pipe traces: -pipetrace N renders the timeline (eole.PipeTrace) of
// the N µ-ops fetched after -warmup, one column per cycle; E and L mark
// µ-ops that Early Execution and the LE/VT stage executed.
//
// A single run is execute-driven: it interprets the workload as it
// simulates. Reusing a workload's trace across configs, or across
// processes, is what sweep mode and eoled -artifact-dir are for.
//
// Sampled simulation: -sample-windows N (with -sample-skip,
// -sample-warm, -sample-measure, -sample-detail) runs SMARTS-style
// sampling instead of one contiguous region: -warmup µ-ops of
// functional warming, then N windows that skip, functionally warm,
// and measure in detail, reporting IPC with a 95% confidence interval
// ("IPC 1.234 ± 0.017"). -n remains the total detailed budget,
// divided evenly across windows unless -sample-measure fixes a
// per-window length. Intended for the long-* phased workloads, whose
// ~12M-µ-op streams are intractable to simulate in full.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"eole"
)

func main() {
	var (
		cfgName = flag.String("config", "EOLE_4_64", "machine configuration: a name or a JSON config file path")
		dumpCfg = flag.Bool("dump-config", false, "print the resolved configuration as JSON and exit")
		wlName  = flag.String("workload", "namd", "benchmark name (short or full)")
		warmup  = flag.Uint64("warmup", 50_000, "warm-up µ-ops before measurement")
		n       = flag.Uint64("n", 200_000, "measured µ-ops")
		list    = flag.Bool("list", false, "list configurations and workloads")
		asJSON  = flag.Bool("json", false, "emit the report as JSON (machine readable)")
		disasm  = flag.String("disasm", "", "print the program of a workload and exit")
		pipeN   = flag.Uint64("pipetrace", 0, "render a pipeline trace of N µ-ops after warm-up and exit")

		sampleWin     = flag.Int("sample-windows", 0, "run sampled simulation with this many measurement windows (0 = full run)")
		sampleSkip    = flag.Uint64("sample-skip", 0, "per-window fast-forward µ-ops with no state updates")
		sampleWarm    = flag.Uint64("sample-warm", 40_000, "per-window functional-warming µ-ops (predictors + caches, no cycles)")
		sampleMeasure = flag.Uint64("sample-measure", 0, "per-window measured µ-ops (0 = divide -n across windows)")
		sampleDetail  = flag.Uint64("sample-detail", 0, "detailed pre-measure µ-ops per window, discarded from stats (0 = default)")

		gridSpec = flag.String("grid", "", "sweep mode: design-space grid as a JSON file path or inline object")
		wlsCSV   = flag.String("workloads", "", "sweep mode: comma-separated workloads (default: the single -workload)")
		server   = flag.String("server", "", "sweep mode: run the sweep on this eoled's /v1/sweep (a coordinator shards it across its fleet)")
		svgPath  = flag.String("svg", "", "sweep mode: additionally render the IPC table as SVG to this file (\"-\" = stdout)")
	)
	flag.Parse()

	if *dumpCfg {
		cfg, err := resolveConfig(*cfgName)
		if err != nil {
			fail(err)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(cfg); err != nil {
			fail(err)
		}
		return
	}

	if *list {
		fmt.Println("Configurations:")
		for _, n := range eole.ConfigNames() {
			fmt.Printf("  %s\n", n)
		}
		fmt.Println("Workloads:")
		for _, w := range eole.Workloads() {
			fmt.Printf("  %-12s (%s)  paper IPC %.3f  %s\n", w.Short, w.Name, w.PaperIPC, w.Description)
		}
		fmt.Println("Long phased workloads (intended for -sample-windows):")
		for _, w := range eole.LongWorkloads() {
			fmt.Printf("  %-12s %s\n", w.Short, w.Description)
		}
		return
	}
	if *disasm != "" {
		w, err := eole.WorkloadByName(*disasm)
		if err != nil {
			fail(err)
		}
		fmt.Print(w.Program.Disasm())
		return
	}

	spec, err := samplingSpec(*sampleWin, *sampleSkip, *sampleWarm, *sampleMeasure, *sampleDetail, *n)
	if err != nil {
		fail(err)
	}

	if *svgPath != "" && *gridSpec == "" && *wlsCSV == "" && *server == "" {
		// -svg renders a sweep table; promote a bare single run into a
		// one-cell sweep rather than silently ignoring the flag.
		*wlsCSV = *wlName
	}

	if *gridSpec != "" || *wlsCSV != "" || *server != "" {
		// Ctrl-C or SIGTERM cancels the sweep: a remote one drops its
		// request, so the server abandons its cells. Notify also takes
		// back a SIGINT the shell handed down ignored.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		if err := runSweep(ctx, sweepArgs{
			grid:      *gridSpec,
			config:    *cfgName,
			workloads: *wlsCSV,
			workload:  *wlName,
			server:    *server,
			warmup:    *warmup,
			measure:   *n,
			sampling:  spec,
			asJSON:    *asJSON,
			svg:       *svgPath,
		}); err != nil {
			fail(err)
		}
		return
	}

	w, err := eole.WorkloadByName(*wlName)
	if err != nil {
		fail(err)
	}
	cfg, err := resolveConfig(*cfgName)
	if err != nil {
		fail(err)
	}
	if *pipeN > 0 {
		pt := new(eole.PipeTrace) // records nothing until its window is set
		sim, err := eole.NewSimulator(cfg, w, eole.WithTracer(pt))
		if err != nil {
			fail(err)
		}
		pt.From, pt.N = sim.Run(*warmup).Raw().Fetched, *pipeN
		sim.Run(*pipeN + 2048) // so that every traced µ-op drains through commit
		pt.Render(os.Stdout)
		return
	}
	var opts []eole.SimOption
	if spec != nil {
		opts = append(opts, eole.WithSampling(*spec))
	}
	r, err := eole.Simulate(cfg, w, *warmup, *n, opts...)
	if err != nil {
		fail(err)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(r); err != nil {
			fail(err)
		}
		return
	}
	fmt.Println(r)
}

// resolveConfig turns the -config argument into a configuration: a
// path to an existing file is decoded as a JSON Config object (the
// format -dump-config emits; unknown fields are rejected so a typo'd
// field name cannot silently run a different machine), normalized and
// validated; anything else resolves as a named paper configuration.
func resolveConfig(arg string) (eole.Config, error) {
	if st, err := os.Stat(arg); err == nil && !st.IsDir() {
		b, err := os.ReadFile(arg)
		if err != nil {
			return eole.Config{}, err
		}
		dec := json.NewDecoder(bytes.NewReader(b))
		dec.DisallowUnknownFields()
		var cfg eole.Config
		if err := dec.Decode(&cfg); err != nil {
			return eole.Config{}, fmt.Errorf("%s: not a JSON config: %w", arg, err)
		}
		cfg = cfg.Normalized()
		if err := cfg.Validate(); err != nil {
			return eole.Config{}, fmt.Errorf("%s: %w", arg, err)
		}
		return cfg, nil
	}
	return eole.NamedConfig(arg)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "eolesim:", err)
	os.Exit(1)
}
