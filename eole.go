// Package eole is a cycle-level reproduction of "EOLE: Paving the Way
// for an Effective Implementation of Value Prediction" (Perais &
// Seznec, ISCA 2014).
//
// EOLE ({Early | Out-of-Order | Late} Execution) builds on a value
// prediction (VP) pipeline that validates predictions at commit time:
// single-cycle ALU µ-ops whose operands are available in the front end
// execute beside Rename (Early Execution), and value-predicted
// single-cycle ALU µ-ops plus very-high-confidence branches execute in
// a pre-commit stage (Late Execution). 10%-60% of retired µ-ops never
// enter the out-of-order engine, letting the issue width shrink from 6
// to 4 — with the PRF port count back at baseline levels — at no
// performance cost.
//
// The package wraps a complete substrate built from scratch: a µ-op
// ISA and functional interpreter, 19 synthetic SPEC-like workloads, a
// TAGE branch predictor with confidence classes, the VTAGE-2DStride
// value predictor with Forward Probabilistic Counters, Store Sets, a
// full cache hierarchy with DDR3 memory, a banked physical register
// file, and the cycle-level out-of-order core with the EOLE blocks.
//
// Quick start:
//
//	cfg, _ := eole.NamedConfig("EOLE_4_64")
//	w, _ := eole.WorkloadByName("namd")
//	sim := eole.NewSimulator(cfg, w)
//	sim.Run(50_000) // warm up
//	r := sim.Measure(200_000)
//	fmt.Println(r)
package eole

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"eole/internal/config"
	"eole/internal/core"
	"eole/internal/prog"
	"eole/internal/sample"
	"eole/internal/trace"
	"eole/internal/workload"
)

// Config is a machine configuration. Use NamedConfig or the
// constructors in this package to obtain one.
type Config = config.Config

// Workload is one of the 19 synthetic SPEC-stand-in benchmarks.
type Workload = workload.Workload

// NamedConfig resolves a configuration name from the paper
// (e.g. "Baseline_VP_6_64", "EOLE_4_64", "EOLE_4_64_4ports_4banks").
func NamedConfig(name string) (Config, error) { return config.Named(name) }

// ConfigNames lists all named configurations.
func ConfigNames() []string { return config.KnownNames() }

// BaselineConfig returns the Table 1 machine without value prediction.
func BaselineConfig() Config { return config.Baseline6_64() }

// EOLEConfig returns the EOLE machine at the given issue width and IQ
// size with unconstrained EE/LE bandwidth (the Section 5 model).
func EOLEConfig(issueWidth, iqSize int) Config { return config.EOLE(issueWidth, iqSize) }

// PracticalEOLEConfig returns the headline Figure 12 design:
// EOLE_4_64 with a 4-bank PRF and 4 LE/VT read ports per bank.
func PracticalEOLEConfig() Config { return config.EOLE4_64Practical() }

// Workloads returns the 19 benchmarks in Table 3 order.
func Workloads() []Workload { return workload.All() }

// WorkloadNames returns the short benchmark names in Table 3 order.
func WorkloadNames() []string { return workload.Names() }

// WorkloadByName resolves a benchmark by short ("mcf") or full
// ("429.mcf") name, including the long-* phased family.
func WorkloadByName(name string) (Workload, error) { return workload.ByName(name) }

// LongWorkloads returns the long-* phased family: kernels whose
// behaviour rotates through compute / scramble / stream phases over
// recommended streams of ~12M µ-ops — 50-100× the default measured
// region, tractable only with sampled simulation (WithSampling).
// They are not part of Workloads(): the Table 3 suite and the figure
// sweeps stay at the paper's 19 benchmarks.
func LongWorkloads() []Workload { return workload.LongAll() }

// LongWorkloadUops is the recommended sampled-run stream extent for
// the long-* family.
const LongWorkloadUops = workload.LongRecommendedUops

// Trace is a recorded µ-op stream (see internal/trace): the committed
// dynamic stream of one workload, interpreted once and replayable by
// any number of simulations. Because the cycle-level core consumes the
// stream strictly in order, a trace-driven simulation produces a
// byte-identical Report to an execute-driven one for the same
// (config, workload, warmup, measure).
type Trace = trace.Trace

// TraceSlack is the fetch-ahead margin a trace must include beyond
// warmup+measure to guarantee byte-identical replay of that region
// (re-exported from internal/trace for callers sizing recordings).
// It covers every named configuration; for a custom Config with an
// ROB beyond ~2000 entries, size the margin with TraceSlackFor
// instead.
const TraceSlack = trace.ReplaySlack

// TraceSlackFor returns the replay margin for cfg: the core's maximum
// fetch-ahead distance (in-flight window plus fetch queue), floored
// at TraceSlack. Record warmup+measure+TraceSlackFor(cfg) µ-ops to
// replay a (warmup, measure) run of cfg exactly.
func TraceSlackFor(cfg Config) uint64 {
	return trace.SlackFor(cfg.ROBSize, cfg.FetchQueueSize)
}

// ReplayNeed returns how many µ-ops a trace must hold for a
// (warmup, measure) run of cfg — sampled by spec unless it is nil — to
// replay byte-identically: what the run consumes plus cfg's
// fetch-ahead margin. A sampled run consumes its whole window
// schedule, so its need is spec.StreamNeed, not warmup+measure; and
// StreamNeed budgets sample.FlushAllowance per window for the
// in-flight µ-ops each window boundary discards, so a machine that
// fetches further ahead than that needs the difference once per
// window on top. It returns 0 when the sum overflows: no trace can
// serve such a run, and callers simulate it execute-driven.
func ReplayNeed(cfg Config, warmup, measure uint64, spec *SamplingSpec) uint64 {
	slack := TraceSlackFor(cfg)
	total := warmup + measure
	if total < warmup {
		return 0
	}
	if spec != nil {
		total = spec.StreamNeed(warmup, measure)
		if total == math.MaxUint64 {
			return 0 // saturated, or a spec that does not resolve
		}
		if slack > sample.FlushAllowance {
			per, windows := slack-sample.FlushAllowance, uint64(spec.Windows)
			extra := per * windows
			if extra/windows != per || total+extra < total {
				return 0
			}
			total += extra
		}
	}
	if total+slack < total {
		return 0
	}
	return total + slack
}

// RecordTrace interprets w functionally for up to n µ-ops and returns
// the compact recorded stream. To replay a (warmup, measure) run
// exactly, record warmup+measure+TraceSlack µ-ops.
func RecordTrace(w Workload, n uint64) *Trace { return trace.Record(w, n) }

// SamplingSpec configures SMARTS-style sampled simulation (see
// internal/sample): per measurement window, Skip µ-ops are
// fast-forwarded with no state updates, Warm µ-ops functionally train
// the predictors, caches and Store Sets, and Measure µ-ops are
// simulated cycle by cycle. The sampled IPC is the reciprocal of the
// mean per-window CPI (the SMARTS estimator, unbiased where a mean of
// per-window IPCs is not; see sample.Estimate), with the CLT 95%
// confidence interval of that CPI mapped through the reciprocal.
type SamplingSpec = sample.Spec

// SimOption customizes NewSimulator / Simulate.
type SimOption func(*simOptions)

type simOptions struct {
	replay   *Trace
	sampling *sample.Spec
	tracer   Tracer
}

// WithSampling switches Simulate / SimulateContext to sampled
// execution: the warmup argument is applied as functional warming
// before the first window, and the measure argument is the total
// detailed budget, divided evenly across the spec's windows (unless
// the spec fixes a per-window Measure). The report then carries the
// confidence interval: IPC is 1 / the mean of the per-window CPIs,
// IPCCI the wider side of the 95% CPI interval mapped through that
// reciprocal, and Sampled is set. Composes with
// WithReplay — the windows then fast-forward through the recorded
// trace instead of the interpreter: each window's skip is a seek in
// the trace, so the skipped µ-ops are neither interpreted nor decoded,
// and the ones the run does read are decoded for it alone (its cursor,
// a trace.Replay, streams): a sampled run leaves nothing decoded in the
// trace, whatever its spec, where a full run's replay holds the packed
// records it reads in the trace's shared chunks.
func WithSampling(spec SamplingSpec) SimOption {
	return func(o *simOptions) { o.sampling = &spec }
}

// WithReplay makes the simulator pull its µ-op stream from the
// recorded trace instead of running the functional interpreter. The
// trace must have been recorded from the same workload and program
// build; NewSimulator fails otherwise (callers typically fall back to
// execute-driven simulation). The caller is responsible for the trace
// being long enough (Trace.CanServe) — a too-short trace ends the
// simulation early, like a halting workload.
func WithReplay(t *Trace) SimOption {
	return func(o *simOptions) { o.replay = t }
}

// WithTracer attaches a tracer that observes every pipeline event of
// the simulation, whichever µ-op source it runs on (see PipeTrace).
// Functional warming and skipping are not pipeline events: a sampled
// run traces its detailed windows only.
func WithTracer(t Tracer) SimOption {
	return func(o *simOptions) { o.tracer = t }
}

// Simulator runs one workload on one machine configuration.
type Simulator struct {
	cfg      Config
	wl       Workload
	core     *core.Core
	replay   bool
	sampling *sample.Spec
}

// NewSimulator builds a simulator. By default the µ-op stream comes
// from the functional interpreter; WithReplay substitutes a recorded
// trace. It returns an error for invalid configurations or a trace
// that does not match the workload. The config is normalized first
// (Config.Normalized), so a raw struct that left LEWidth to its
// commit-width default simulates the same machine as the config that
// spells the width out.
func NewSimulator(cfg Config, w Workload, opts ...SimOption) (*Simulator, error) {
	cfg = cfg.Normalized()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	var o simOptions
	for _, opt := range opts {
		opt(&o)
	}
	if o.sampling != nil {
		if err := o.sampling.Validate(); err != nil {
			return nil, err
		}
	}
	var c *core.Core
	var err error
	switch {
	case o.replay == nil:
		c = core.New(cfg, prog.MachineSource{M: w.NewMachine()})
	case o.sampling != nil:
		// A sampled run reads a small part of a long trace, once, and its
		// verdicts depend on what it skips: it streams and predicts live.
		var rs *trace.Replay
		if rs, err = o.replay.SourceFor(w); err == nil {
			c = core.New(cfg, rs)
		}
	default:
		// A full run reads its verdicts from the trace's prediction track.
		c, err = core.NewReplay(cfg, o.replay, w)
	}
	if err != nil {
		return nil, err
	}
	c.SetTracer(o.tracer)
	return &Simulator{
		cfg:      cfg,
		wl:       w,
		core:     c,
		replay:   o.replay != nil,
		sampling: o.sampling,
	}, nil
}

// TraceDriven reports whether the simulator replays a recorded trace
// rather than running the functional interpreter.
func (s *Simulator) TraceDriven() bool { return s.replay }

// Sampled reports whether the simulator was built with WithSampling.
// A sampled simulator runs its schedule through Sample/SampleContext
// (which Simulate/SimulateContext call); the step-wise Run/Measure
// methods always simulate in detail, spec or no spec.
func (s *Simulator) Sampled() bool { return s.sampling != nil }

// Run simulates n committed µ-ops (training predictors and warming
// caches) and returns the running report. Run is always detailed —
// on a simulator built with WithSampling, use Sample/SampleContext
// (or the package-level Simulate) to execute the sampled schedule.
func (s *Simulator) Run(n uint64) *Report {
	s.core.Run(n)
	return s.report()
}

// RunContext is Run with cooperative cancellation: the cycle-level
// core checks ctx at checkpoints (every ~1K iterations of its cycle
// loop, each a simulated cycle or a run of idle ones) and stops
// promptly when it fires, returning the report so far alongside
// ctx.Err(). The simulator state stays consistent, so a canceled run
// can be resumed.
func (s *Simulator) RunContext(ctx context.Context, n uint64) (*Report, error) {
	_, err := s.core.RunContext(ctx, n)
	return s.report(), err
}

// Measure clears statistics and simulates n committed µ-ops, so the
// returned report covers exactly the measured region.
func (s *Simulator) Measure(n uint64) *Report {
	s.core.ResetStats()
	s.core.Run(n)
	return s.report()
}

// MeasureContext is Measure with cooperative cancellation (see
// RunContext).
func (s *Simulator) MeasureContext(ctx context.Context, n uint64) (*Report, error) {
	s.core.ResetStats()
	_, err := s.core.RunContext(ctx, n)
	return s.report(), err
}

// Config returns the simulated machine configuration.
func (s *Simulator) Config() Config { return s.cfg }

// Workload returns the simulated benchmark.
func (s *Simulator) Workload() Workload { return s.wl }

func (s *Simulator) report() *Report { return s.reportFrom(s.core.Stats()) }

// reportFrom builds a report from an explicit counter set (the core's
// own for full runs, the summed measured-window counters for sampled
// runs). Predictor and cache rates always come from the core's
// cumulative state.
func (s *Simulator) reportFrom(st *core.Stats) *Report {
	bp := s.core.Branch()
	mem := s.core.Memory()
	return &Report{
		// Label, not Name: an anonymous config reports as
		// "custom-<fingerprint prefix>" instead of "".
		Config:    s.cfg.Label(),
		Benchmark: s.wl.Short,

		Cycles:    st.Cycles,
		Committed: st.Committed,
		IPC:       st.IPC(),

		EEFraction:      st.EEFraction(),
		LEFraction:      st.LEFraction(),
		LEBranchFrac:    frac(st.LateBranches, st.Committed),
		OffloadFraction: st.OffloadFraction(),

		VPCoverage:    st.VPCoverage(),
		VPSquashes:    st.VPSquashes,
		VPSquashPKI:   1000 * frac(st.VPSquashes, st.Committed),
		MemViolations: st.MemViolations,

		BranchMPKI:       1000 * frac(st.BranchMispredicts, st.Committed),
		HighConfBranches: bp.HighConfFraction(),
		HighConfMispRate: bp.HighConfMispredictRate(),

		L1DMissRate:      mem.L1D.MissRate(),
		L2MissRate:       mem.L2.MissRate(),
		DRAMAvgLat:       mem.Dram.AvgReadLatency(),
		LEVTPortStalls:   st.LEVTPortStalls,
		RenameBankStalls: st.RenameBankStalls,

		raw: *st,
	}
}

func frac(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// Report summarizes one simulation region. It marshals to JSON
// losslessly (including the raw counter set), so it can be cached on
// disk or served over the wire and round-trip back to an identical
// value.
type Report struct {
	Config    string `json:"config"`
	Benchmark string `json:"benchmark"`

	Cycles    uint64  `json:"cycles"`
	Committed uint64  `json:"committed"`
	IPC       float64 `json:"ipc"`

	// EOLE offload metrics (Figures 2 and 4).
	EEFraction      float64 `json:"ee_fraction"`
	LEFraction      float64 `json:"le_fraction"`
	LEBranchFrac    float64 `json:"le_branch_fraction"`
	OffloadFraction float64 `json:"offload_fraction"`

	// Value prediction metrics.
	VPCoverage    float64 `json:"vp_coverage"`
	VPSquashes    uint64  `json:"vp_squashes"`
	VPSquashPKI   float64 `json:"vp_squash_pki"`
	MemViolations uint64  `json:"mem_violations"`

	// Branch prediction metrics.
	BranchMPKI       float64 `json:"branch_mpki"`
	HighConfBranches float64 `json:"high_conf_branches"`
	HighConfMispRate float64 `json:"high_conf_misp_rate"`

	// Memory system metrics.
	L1DMissRate float64 `json:"l1d_miss_rate"`
	L2MissRate  float64 `json:"l2_miss_rate"`
	DRAMAvgLat  float64 `json:"dram_avg_latency"`

	// Constraint stalls (Figures 10 and 11).
	LEVTPortStalls   uint64 `json:"levt_port_stalls"`
	RenameBankStalls uint64 `json:"rename_bank_stalls"`

	// Sampled simulation (zero / absent on full runs). When Sampled
	// is set, IPC is the reciprocal of the mean of SampleWindows
	// per-window CPIs, and IPCCI is the CLT 95% CPI interval mapped
	// through that reciprocal, its wider side: the estimate's claim is
	// IPC ± IPCCI. Cycles/Committed and the raw counters sum
	// over the measured windows only; cache and predictor rates are
	// cumulative (they include functional warming, which is the
	// point of warming).
	Sampled       bool    `json:"sampled,omitempty"`
	IPCCI         float64 `json:"ipc_ci,omitempty"`
	SampleWindows int     `json:"sample_windows,omitempty"`

	raw core.Stats
}

// Raw returns the underlying counter set.
func (r *Report) Raw() core.Stats { return r.raw }

// MarshalJSON includes the raw counter set under "raw" so a decoded
// Report preserves Raw().
func (r *Report) MarshalJSON() ([]byte, error) {
	type alias Report
	return json.Marshal(struct {
		alias
		Raw core.Stats `json:"raw"`
	}{alias(*r), r.raw})
}

// UnmarshalJSON is the inverse of MarshalJSON.
func (r *Report) UnmarshalJSON(b []byte) error {
	type alias Report
	var aux struct {
		alias
		Raw core.Stats `json:"raw"`
	}
	if err := json.Unmarshal(b, &aux); err != nil {
		return err
	}
	*r = Report(aux.alias)
	r.raw = aux.Raw
	return nil
}

// String renders a human-readable summary.
func (r *Report) String() string {
	var b strings.Builder
	if r.Sampled {
		fmt.Fprintf(&b, "%s on %s: IPC %.3f ± %.3f (95%% CI, %d sampled windows; %d measured µ-ops)\n",
			r.Config, r.Benchmark, r.IPC, r.IPCCI, r.SampleWindows, r.Committed)
	} else {
		fmt.Fprintf(&b, "%s on %s: IPC %.3f over %d cycles (%d µ-ops)\n",
			r.Config, r.Benchmark, r.IPC, r.Cycles, r.Committed)
	}
	fmt.Fprintf(&b, "  offload: %.1f%% (early %.1f%%, late ALU %.1f%%, late branches %.1f%%)\n",
		100*r.OffloadFraction, 100*r.EEFraction,
		100*(r.LEFraction-r.LEBranchFrac), 100*r.LEBranchFrac)
	fmt.Fprintf(&b, "  VP: coverage %.1f%%, squashes/kilo-µ-op %.3f\n",
		100*r.VPCoverage, r.VPSquashPKI)
	fmt.Fprintf(&b, "  branches: %.2f MPKI, %.1f%% very-high-confidence (misp %.3f%%)\n",
		r.BranchMPKI, 100*r.HighConfBranches, 100*r.HighConfMispRate)
	fmt.Fprintf(&b, "  memory: L1D miss %.1f%%, L2 miss %.1f%%, DRAM avg %.0f cycles",
		100*r.L1DMissRate, 100*r.L2MissRate, r.DRAMAvgLat)
	return b.String()
}

// Simulate is the one-call convenience API: warm up, then measure.
// Options select the µ-op source (e.g. WithReplay for trace-driven
// simulation) and the execution mode (WithSampling for a sampled
// estimate instead of a full run).
func Simulate(cfg Config, w Workload, warmup, measure uint64, opts ...SimOption) (*Report, error) {
	return SimulateContext(context.Background(), cfg, w, warmup, measure, opts...)
}

// SimulateContext is Simulate with cooperative cancellation: when ctx
// fires (deadline, client disconnect, all waiters gone) the cycle
// loop stops within ~1K of its iterations and ctx.Err() is returned.
// A canceled run returns no report — partial measurements are not
// comparable across configs.
func SimulateContext(ctx context.Context, cfg Config, w Workload, warmup, measure uint64, opts ...SimOption) (*Report, error) {
	sim, err := NewSimulator(cfg, w, opts...)
	if err != nil {
		return nil, err
	}
	if sim.sampling != nil {
		return sim.SampleContext(ctx, warmup, measure)
	}
	if _, err := sim.RunContext(ctx, warmup); err != nil {
		return nil, err
	}
	r, err := sim.MeasureContext(ctx, measure)
	if err != nil {
		return nil, err
	}
	return r, nil
}

// Sample executes the WithSampling schedule on a fresh simulator:
// warmup µ-ops of functional warming, then the spec's (skip, warm,
// measure) windows, aggregated into a confidence-bounded report (see
// SampleContext for the error contract).
func (s *Simulator) Sample(warmup, measure uint64) (*Report, error) {
	return s.SampleContext(context.Background(), warmup, measure)
}

// SampleContext runs the sampled schedule with cooperative
// cancellation. It fails if the simulator was not built with
// WithSampling, if the schedule is unresolvable against the measure
// budget, or if the µ-op source runs dry before every window
// completes — a truncated estimate does not answer the spec it was
// asked under, so it is an error rather than a silently-short report
// (size trace recordings with SamplingSpec.StreamNeed).
func (s *Simulator) SampleContext(ctx context.Context, warmup, measure uint64) (*Report, error) {
	if s.sampling == nil {
		return nil, fmt.Errorf("eole: SampleContext on a simulator built without WithSampling")
	}
	plan, err := s.sampling.Plan(measure)
	if err != nil {
		return nil, err
	}
	if warmup > 0 {
		if _, err := s.core.WarmContext(ctx, warmup); err != nil {
			return nil, err
		}
	}
	est, err := sample.Run(ctx, s.core, plan)
	if err != nil {
		return nil, err
	}
	if est.SourceExhausted {
		return nil, fmt.Errorf("eole: µ-op source of %s ran dry after %d of %d sampling windows (the schedule needs %d stream µ-ops past warmup)",
			s.wl.Short, len(est.WindowIPC), plan.Windows, plan.Total())
	}
	r := s.reportFrom(&est.Stats)
	r.IPC = est.IPC
	r.Sampled = true
	r.IPCCI = est.IPCHalfWidth
	r.SampleWindows = len(est.WindowIPC)
	return r, nil
}
