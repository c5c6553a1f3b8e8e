// Package experiments regenerates every table and figure of the
// paper's evaluation (ARCHITECTURE.md, "Configurations and grids": a
// figure is one sweep, declared as a grid where it has axes). Each
// FigureN/TableN function runs the required machine configurations
// over the benchmark suite and returns a stats.Table shaped like the
// paper's artefact: one row per benchmark, one column per series,
// normalized exactly as the paper normalizes.
package experiments

import (
	"context"
	"fmt"
	"strings"

	"eole"
	"eole/internal/bpred"
	"eole/internal/cluster"
	"eole/internal/complexity"
	"eole/internal/config"
	"eole/internal/simsvc"
	"eole/internal/stats"
	"eole/internal/vpred"
)

// Opts controls run length and benchmark selection.
type Opts struct {
	// Warmup µ-ops committed before measurement (predictor/cache
	// training; the paper uses 50M on 100M-instruction slices).
	Warmup uint64
	// Measure µ-ops committed in the measured region.
	Measure uint64
	// Workloads restricts the suite (nil = all 19).
	Workloads []string
	// Service, when non-nil, runs simulations through a shared
	// simsvc.Service so results are cached across figures (every
	// figure re-runs a baseline column). When nil, each runSet spins
	// up a private service with default options.
	Service *simsvc.Service
	// Sampling, when non-nil, runs every simulation of every figure
	// sampled (eole.WithSampling): Warmup becomes functional warming
	// and Measure the total detailed budget per cell. Figures then
	// build on confidence-bounded IPC estimates — the tables carry the
	// means; sampled and full results never share cache entries.
	Sampling *eole.SamplingSpec
	// Server, when set, is the base URL of an eoled that runs every
	// sweep (cluster.RemoteSweep) instead of a local service — a
	// coordinator shards it across its fleet. The simulator is
	// deterministic, so figures are identical whichever runs them.
	// Service is ignored when Server is set.
	Server string
	// Context cancels in-flight sweeps (nil = background).
	Context context.Context
}

// DefaultOpts returns run lengths that finish the full suite in
// seconds while staying past the predictors' training horizon.
func DefaultOpts() Opts {
	return Opts{Warmup: 30_000, Measure: 100_000}
}

func (o Opts) workloads() []string {
	if len(o.Workloads) == 0 {
		return eole.WorkloadNames()
	}
	// Canonicalize to short names so aliases ("429.mcf") match the
	// row filters and report keys, and dedupe so an alias pair does
	// not produce a double-weighted row; unresolvable names pass
	// through and fail in the service with a useful error.
	out := make([]string, 0, len(o.Workloads))
	seen := make(map[string]bool, len(o.Workloads))
	for _, name := range o.Workloads {
		if w, err := eole.WorkloadByName(name); err == nil {
			name = w.Short
		}
		if !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	return out
}

// runKey identifies one simulation.
type runKey struct {
	cfg string
	wl  string
}

// runSet executes every (config, workload) pair through the batch
// simulation service (or the eoled at Opts.Server) and returns the
// reports keyed by (config name, workload). With a shared Opts.Service,
// repeated pairs — notably the baseline column every figure re-runs —
// are served from the service's content-addressed cache instead of
// re-simulating.
func runSet(o Opts, cfgs []eole.Config) (map[runKey]*eole.Report, error) {
	ctx := o.Context
	if ctx == nil {
		ctx = context.Background()
	}
	wls := o.workloads()
	reqs := simsvc.ApplySampling(simsvc.Cross(cfgs, wls, o.Warmup, o.Measure), o.Sampling)
	var reports []*eole.Report
	var err error
	if o.Server != "" {
		reports, err = cluster.RemoteSweep(ctx, o.Server, cfgs, wls, o.Warmup, o.Measure, o.Sampling)
	} else {
		reports, err = localSweep(ctx, o.Service, reqs)
	}
	if err != nil {
		return nil, err
	}
	out := make(map[runKey]*eole.Report, len(reqs))
	for i, r := range reports {
		out[runKey{reqs[i].Config.Name, reqs[i].Workload}] = r
	}
	return out, nil
}

// localSweep executes one request batch through svc, or through a
// private service when svc is nil.
func localSweep(ctx context.Context, svc *simsvc.Service, reqs []simsvc.Request) ([]*eole.Report, error) {
	if svc == nil {
		var err error
		svc, err = simsvc.New(simsvc.Options{})
		if err != nil {
			return nil, err
		}
		defer svc.Close()
	}
	sweep, err := svc.SubmitSweep(ctx, reqs)
	if err != nil {
		return nil, err
	}
	return sweep.Wait(ctx)
}

func named(name string) eole.Config {
	c, err := eole.NamedConfig(name)
	if err != nil {
		panic(err)
	}
	return c
}

// speedupTable builds a per-benchmark speedup table of the given
// configurations normalized to baseline.
func speedupTable(o Opts, title, baseline string, series []eole.Config) (*stats.Table, error) {
	cfgs := append([]eole.Config{named(baseline)}, series...)
	reports, err := runSet(o, cfgs)
	if err != nil {
		return nil, err
	}
	cols := make([]string, len(series))
	for i, c := range series {
		cols[i] = c.Name
	}
	t := stats.NewTable(title, "benchmark", cols...)
	t.Note = fmt.Sprintf("speedup over %s (IPC ratio); geomean over %d benchmarks",
		baseline, len(o.workloads()))
	t.WithGeomean = true
	for _, wl := range o.workloads() {
		base := reports[runKey{baseline, wl}]
		vals := make([]float64, len(series))
		for i, c := range series {
			vals[i] = reports[runKey{c.Name, wl}].IPC / base.IPC
		}
		t.AddRow(wl, vals...)
	}
	return t, nil
}

// Table3 reproduces Table 3: per-benchmark IPC of Baseline_6_64, with
// the paper's reported IPC alongside for comparison.
func Table3(o Opts) (*stats.Table, error) {
	reports, err := runSet(o, []eole.Config{named("Baseline_6_64")})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Table 3: baseline IPC per benchmark", "benchmark",
		"IPC", "paper_IPC")
	t.Note = "Baseline_6_64 (no value prediction); paper column is the authors' gem5/SPEC measurement"
	for _, w := range eole.Workloads() {
		keep := false
		for _, name := range o.workloads() {
			if name == w.Short {
				keep = true
			}
		}
		if !keep {
			continue
		}
		r := reports[runKey{"Baseline_6_64", w.Short}]
		t.AddRow(w.Short, r.IPC, w.PaperIPC)
	}
	return t, nil
}

// gridSeries expands a design-space grid into the config series of
// one figure. Each figure's sweep is declared as data — a base config
// plus axes — instead of hand-mutated structs; the cells keep their
// synthesized names ("<base>_<Option><value>") as column labels.
func gridSeries(g config.Grid) ([]eole.Config, error) {
	cfgs, err := g.Configs()
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return cfgs, nil
}

// Figure2 reproduces Figure 2: the proportion of committed µ-ops that
// can be early-executed with one or two ALU stages (VTAGE-2DStride
// hybrid, 6-issue machine). The sweep is an EE-depth axis on
// EOLE_6_64; the depth-1 cell fingerprints identically to the named
// EOLE_6_64, so it shares cached results with every other figure that
// runs that machine.
func Figure2(o Opts) (*stats.Table, error) {
	series, err := gridSeries(config.Grid{
		BaseName: "EOLE_6_64",
		Axes:     []config.Axis{{Option: "EarlyExecution", Values: []any{1, 2}}},
	})
	if err != nil {
		return nil, err
	}
	reports, err := runSet(o, series)
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Figure 2: early-executable fraction of committed µ-ops",
		"benchmark", "1_ALU_stage", "2_ALU_stages")
	t.Note = "paper: 10%-40%, with the second stage adding little"
	t.WithGeomean = false
	for _, wl := range o.workloads() {
		t.AddRow(wl,
			reports[runKey{series[0].Name, wl}].EEFraction,
			reports[runKey{series[1].Name, wl}].EEFraction)
	}
	return t, nil
}

// Figure4 reproduces Figure 4: the proportion of committed µ-ops that
// can be late-executed, split into very-high-confidence branches and
// value-predicted single-cycle ALU µ-ops (disjoint from Figure 2's
// early-executed set).
func Figure4(o Opts) (*stats.Table, error) {
	reports, err := runSet(o, []eole.Config{named("EOLE_6_64")})
	if err != nil {
		return nil, err
	}
	t := stats.NewTable("Figure 4: late-executable fraction of committed µ-ops",
		"benchmark", "HighConf_branches", "Value_predicted", "total")
	t.Note = "LE-eligible µ-ops that were not early-executed"
	for _, wl := range o.workloads() {
		r := reports[runKey{"EOLE_6_64", wl}]
		t.AddRow(wl, r.LEBranchFrac, r.LEFraction-r.LEBranchFrac, r.LEFraction)
	}
	return t, nil
}

// Figure6 reproduces Figure 6: speedup of adding the VTAGE-2DStride
// value predictor to the baseline (Baseline_VP_6_64 / Baseline_6_64).
func Figure6(o Opts) (*stats.Table, error) {
	return speedupTable(o, "Figure 6: speedup from value prediction",
		"Baseline_6_64", []eole.Config{named("Baseline_VP_6_64")})
}

// Figure7 reproduces Figure 7: EOLE and the VP baseline across issue
// widths, normalized to Baseline_VP_6_64.
func Figure7(o Opts) (*stats.Table, error) {
	return speedupTable(o, "Figure 7: issue-width impact on EOLE",
		"Baseline_VP_6_64",
		[]eole.Config{named("Baseline_VP_4_64"), named("EOLE_4_64"), named("EOLE_6_64")})
}

// Figure8 reproduces Figure 8: IQ-size impact, normalized to
// Baseline_VP_6_64.
func Figure8(o Opts) (*stats.Table, error) {
	return speedupTable(o, "Figure 8: instruction-queue size impact on EOLE",
		"Baseline_VP_6_64",
		[]eole.Config{named("Baseline_VP_6_48"), named("EOLE_6_48"), named("EOLE_6_64")})
}

// Figure10 reproduces Figure 10: EOLE_4_64 with a banked PRF (2/4/8
// banks), normalized to the single-bank EOLE_4_64.
func Figure10(o Opts) (*stats.Table, error) {
	series, err := gridSeries(config.Grid{
		BaseName: "EOLE_4_64",
		Axes:     []config.Axis{{Option: "PRFBanks", Values: []any{2, 4, 8}}},
	})
	if err != nil {
		return nil, err
	}
	t, err := speedupTable(o, "Figure 10: PRF banking impact (EOLE_4_64)",
		"EOLE_4_64", series)
	if err != nil {
		return nil, err
	}
	t.Note = "speedup over single-bank EOLE_4_64; paper: losses within ~2%"
	return t, nil
}

// Figure11 reproduces Figure 11: EOLE_4_64 with a 4-bank PRF and
// 2/3/4 read ports per bank for the LE/VT stage, normalized to
// EOLE_4_64 with unconstrained ports.
func Figure11(o Opts) (*stats.Table, error) {
	series, err := gridSeries(config.Grid{
		BaseName: "EOLE_4_64",
		Axes: []config.Axis{
			{Option: "PRFBanks", Values: []any{4}},
			{Option: "LEVTPorts", Values: []any{2, 3, 4}},
		},
	})
	if err != nil {
		return nil, err
	}
	t, err := speedupTable(o, "Figure 11: LE/VT read-port limits (4-bank EOLE_4_64)",
		"EOLE_4_64", series)
	if err != nil {
		return nil, err
	}
	t.Note = "paper: 2 ports lose visibly, 4 ports ≈ unconstrained"
	return t, nil
}

// Figure12 reproduces Figure 12, the headline comparison: the no-VP
// baseline, idealized EOLE_4_64 and the practical banked/port-limited
// EOLE, all normalized to Baseline_VP_6_64.
func Figure12(o Opts) (*stats.Table, error) {
	return speedupTable(o, "Figure 12: headline EOLE comparison",
		"Baseline_VP_6_64",
		[]eole.Config{named("Baseline_6_64"), named("EOLE_4_64"),
			named("EOLE_4_64_4ports_4banks")})
}

// Figure13 reproduces Figure 13: the modularity study — full EOLE,
// Late-Execution-only (OLE) and Early-Execution-only (EOE), each with
// the practical 4-bank/4-port PRF, normalized to Baseline_VP_6_64.
func Figure13(o Opts) (*stats.Table, error) {
	var series []eole.Config
	for _, name := range []string{"EOLE_4_64", "OLE_4_64", "EOE_4_64"} {
		c := named(name)
		c.Name = name + "_4ports_4banks"
		c.PRF.Banks, c.PRF.LEVTReadPortsPerBank = 4, 4
		series = append(series, c)
	}
	return speedupTable(o, "Figure 13: EOLE modularity (OLE and EOE)",
		"Baseline_VP_6_64", series)
}

// Table1 renders the simulated machine configuration (the analogue of
// the paper's Table 1).
func Table1() string {
	c := named("Baseline_6_64")
	return fmt.Sprintf(`== Table 1: simulated machine configuration ==
Front end   %d-wide fetch (max %d taken branches/cycle), %d-wide rename,
            %d-cycle fetch-to-rename pipe, %d-entry fetch queue,
            TAGE 1+12 components + 2-way 4K BTB + 32-entry RAS
Execution   %d-entry ROB, %d-entry unified IQ (released at issue),
            %d/%d-entry LQ/SQ, %d-issue, %dxALU(1c) %dxMulDiv(3c/25c*)
            %dxFP(3c) %dxFPMulDiv(5c/10c*) %dxLd/Str ports,
            Store Sets 1K-SSID, 256/256 INT/FP physical registers
Caches      L1I 32KB 4-way, L1D 32KB 4-way 2c (64 MSHRs),
            unified L2 2MB 16-way 12c, stride prefetcher degree 8,
            64B lines, LRU
Memory      DDR3-1600 (11-11-11), 2 ranks x 8 banks, 8KB rows,
            75-185 cycle read latency
Retire      %d-wide commit; with VP: +1 LE/VT pre-commit stage,
            value misprediction = squash (>= %d cycles)
(*unpipelined)`,
		c.FetchWidth, c.MaxTakenPerFetch, c.RenameWidth,
		c.FetchToRenameLag, c.FetchQueueSize,
		c.ROBSize, c.IQSize, c.LQSize, c.SQSize, c.IssueWidth,
		c.NumALU, c.NumMulDiv, c.NumFP, c.NumFPMulDiv, c.NumMemPorts,
		c.CommitWidth, c.ValueMispredictPenalty)
}

// Table2 reproduces Table 2: the layout and storage budget of the
// value predictor components.
func Table2() *stats.Table {
	t := stats.NewTable("Table 2: value predictor layout", "predictor",
		"entries", "KB")
	s := vpred.NewTwoDeltaStride(13, vpred.DefaultFPCVector())
	v := vpred.NewVTAGE(vpred.DefaultVTAGEConfig(), bpred.NewHistory())
	t.Note = "paper: 2D-Stride 8192 entries / 251.9KB; VTAGE 8192-entry base + 6x1024 tagged"
	t.AddRow("2D-Stride", 8192, float64(s.StorageBits())/8192)
	t.AddRow("VTAGE", 8192+6*1024, float64(v.StorageBits())/8192)
	return t
}

// Section6 renders the paper's hardware-complexity analysis: PRF port
// counts and Zyuban-Kogge area factors for the baseline, the naive VP
// machine, idealized EOLE and the practical banked design.
func Section6() string {
	return complexity.Section6().Render() + "\n" + complexity.Summary()
}

// Artifact is one regenerated artefact: its rendered text and, for a
// tabular one, the table behind it (nil for the text-only table1 and
// section6).
type Artifact struct {
	ID    string
	Text  string
	Table *stats.Table
	// RefLine is the reference line of the artefact's chart: 1.0 for
	// speedup-over-baseline figures (the paper draws the baseline as a
	// horizontal line), 0 for absolute-valued ones (no line).
	RefLine float64
}

// artefacts lists every artefact in paper order: its id, its chart's
// reference line, and how to build it — table for a tabular artefact,
// text for a text-only one.
var artefacts = []struct {
	id      string
	refLine float64
	table   func(Opts) (*stats.Table, error)
	text    func() string
}{
	{id: "table1", text: Table1},
	{id: "table2", table: func(Opts) (*stats.Table, error) { return Table2(), nil }},
	{id: "table3", table: Table3},
	{id: "figure2", table: Figure2},
	{id: "figure4", table: Figure4},
	{id: "figure6", refLine: 1, table: Figure6},
	{id: "figure7", refLine: 1, table: Figure7},
	{id: "figure8", refLine: 1, table: Figure8},
	{id: "figure10", refLine: 1, table: Figure10},
	{id: "figure11", refLine: 1, table: Figure11},
	{id: "figure12", refLine: 1, table: Figure12},
	{id: "figure13", refLine: 1, table: Figure13},
	{id: "section6", text: Section6},
}

// ByID regenerates a single artefact. A tabular artefact is built
// once: its text is its table rendered.
func ByID(id string, o Opts) (Artifact, error) {
	for _, a := range artefacts {
		if a.id != id {
			continue
		}
		if a.text != nil {
			return Artifact{ID: id, Text: a.text()}, nil
		}
		tb, err := a.table(o)
		if err != nil {
			return Artifact{}, err
		}
		return Artifact{ID: id, Text: tb.Render(), Table: tb, RefLine: a.refLine}, nil
	}
	return Artifact{}, fmt.Errorf("experiments: unknown artefact %q (known: %s)", id, strings.Join(IDs(), ", "))
}

// IDs lists the artefact identifiers in paper order.
func IDs() []string {
	ids := make([]string, len(artefacts))
	for i, a := range artefacts {
		ids[i] = a.id
	}
	return ids
}
