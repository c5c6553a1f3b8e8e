package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"eole"
	"eole/internal/cluster"
	"eole/internal/simsvc"
	"eole/internal/stats"
)

// samplingSpec builds and validates the optional sampling schedule
// from the -sample-* flags (nil when -sample-windows is 0). Plan
// additionally catches schedules that don't resolve against the
// measure budget (e.g. more windows than measured µ-ops) before any
// work happens.
func samplingSpec(windows int, skip, warm, measure, detail, budget uint64) (*eole.SamplingSpec, error) {
	if windows <= 0 {
		return nil, nil
	}
	spec := &eole.SamplingSpec{
		Windows:      windows,
		Skip:         skip,
		Warm:         warm,
		Measure:      measure,
		DetailWarmup: detail,
	}
	if _, err := spec.Plan(budget); err != nil {
		return nil, err
	}
	return spec, nil
}

// sweepArgs carries the flag values of one sweep-mode invocation.
type sweepArgs struct {
	grid      string // -grid: JSON file path or inline object ("" = single -config)
	config    string // -config: used when no grid is given
	workloads string // -workloads CSV ("" = single -workload)
	workload  string // -workload fallback
	server    string // -server: base URL of an eoled ("" = in-process)
	warmup    uint64
	measure   uint64
	sampling  *eole.SamplingSpec
	asJSON    bool
	svg       string // -svg: render the IPC table to this path ("-" = stdout)
}

// runSweep executes a (configs × workloads) sweep — locally through an
// in-process simulation service, or on an eoled with -server (a
// coordinator shards it across its fleet). Both paths produce reports
// in the same cell order with the same labels, so -json output is
// byte-identical either way. Canceling ctx abandons the sweep.
func runSweep(ctx context.Context, a sweepArgs) error {
	if a.server != "" && (a.warmup == 0 || a.measure == 0) {
		// A zero run length is resolved by the server's own defaults,
		// which breaks local/remote equivalence — refuse rather than
		// diverge silently.
		return fmt.Errorf("-server requires explicit nonzero -warmup and -n (a zero would be replaced by the server's own defaults)")
	}
	cfgs, err := sweepConfigs(a)
	if err != nil {
		return err
	}
	wls := []string{a.workload}
	if a.workloads != "" {
		wls = strings.Split(a.workloads, ",")
	}
	for i, wl := range wls {
		wls[i] = strings.TrimSpace(wl)
		if _, err := eole.WorkloadByName(wls[i]); err != nil {
			return err
		}
	}
	var reports []*eole.Report
	if a.server != "" {
		reports, err = cluster.RemoteSweep(ctx, a.server, cfgs, wls, a.warmup, a.measure, a.sampling)
	} else {
		reports, err = localSweep(ctx, simsvc.ApplySampling(simsvc.Cross(cfgs, wls, a.warmup, a.measure), a.sampling))
	}
	if err != nil {
		return err
	}

	if a.svg != "" {
		if err := writeSweepSVG(a.svg, cfgs, wls, reports, a.sampling != nil); err != nil {
			return err
		}
	}
	if a.asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(reports)
	}
	if a.svg == "-" {
		return nil // SVG already owns stdout
	}
	for _, r := range reports {
		if r.Sampled {
			fmt.Printf("%-36s %-10s IPC %.4f ± %.4f\n", r.Config, r.Benchmark, r.IPC, r.IPCCI)
		} else {
			fmt.Printf("%-36s %-10s IPC %.4f\n", r.Config, r.Benchmark, r.IPC)
		}
	}
	return nil
}

// writeSweepSVG renders the sweep as an IPC bar chart: one row per
// workload, one series per config, CI whiskers when sampled. With
// -server the cells run on an eoled, which serves only the reports.
func writeSweepSVG(path string, cfgs []eole.Config, wls []string, reports []*eole.Report, sampled bool) error {
	cols := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		cols[i] = cfg.Label()
	}
	tb := stats.NewTable("IPC", "workload", cols...)
	if sampled {
		tb.Note = "sampled run: 95% CI whiskers"
	}
	// Cross is config-major: report index = ci*len(wls) + wi.
	for wi, wl := range wls {
		vals := make([]float64, len(cfgs))
		cis := make([]float64, len(cfgs))
		for ci := range cfgs {
			r := reports[ci*len(wls)+wi]
			vals[ci] = r.IPC
			cis[ci] = r.IPCCI
		}
		if sampled {
			tb.AddRowCI(wl, vals, cis)
		} else {
			tb.AddRow(wl, vals...)
		}
	}
	svg, err := tb.RenderSVG(0)
	if err != nil {
		return err
	}
	if path == "-" {
		_, err = os.Stdout.Write(svg)
		return err
	}
	return os.WriteFile(path, svg, 0o644)
}

// sweepConfigs expands -grid (file or inline JSON, decoded strictly so
// a typo'd axis field errors instead of sweeping a different space),
// falling back to the single -config.
func sweepConfigs(a sweepArgs) ([]eole.Config, error) {
	if a.grid == "" {
		cfg, err := resolveConfig(a.config)
		if err != nil {
			return nil, err
		}
		return []eole.Config{cfg}, nil
	}
	raw := []byte(a.grid)
	if !strings.HasPrefix(strings.TrimSpace(a.grid), "{") {
		b, err := os.ReadFile(a.grid)
		if err != nil {
			return nil, err
		}
		raw = b
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var g eole.Grid
	if err := dec.Decode(&g); err != nil {
		return nil, fmt.Errorf("-grid: %w", err)
	}
	cfgs, err := g.Configs()
	if err != nil {
		return nil, fmt.Errorf("-grid: %w", err)
	}
	return cfgs, nil
}

// localSweep runs the cells through an in-process service, relabeling
// each report to its requested config exactly as eoled relabels — the
// local half of the byte-identical guarantee. The service is
// trace-driven like every simsvc: each workload is interpreted once
// and replayed per config (replay is byte-identical to execute-driven,
// so output is unaffected).
func localSweep(ctx context.Context, reqs []simsvc.Request) ([]*eole.Report, error) {
	svc, err := simsvc.New(simsvc.Options{})
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	sweep, err := svc.SubmitSweep(ctx, reqs)
	if err != nil {
		return nil, err
	}
	reports, err := sweep.Wait(ctx)
	if err != nil {
		return nil, err
	}
	for i, r := range reports {
		// A cell may have been answered by a simulation of an
		// identically-parameterized config under another name.
		if label := reqs[i].Config.Label(); r.Config != label {
			cp := *r
			cp.Config = label
			reports[i] = &cp
		}
	}
	return reports, nil
}
