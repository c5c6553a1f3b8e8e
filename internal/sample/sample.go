// Package sample implements SMARTS-style sampled simulation: instead
// of simulating a workload's whole dynamic stream cycle by cycle, the
// sampler alternates cheap fast-forward phases with short detailed
// measurement windows and reports IPC as a mean with a CLT 95%
// confidence interval.
//
// Each of the W windows runs three phases over the shared µ-op
// source:
//
//	skip     — advance the stream without touching any state (an
//	           execute-driven source still interprets every skipped
//	           µ-op; a trace replay seeks past them);
//	warm     — advance the stream while training the branch and
//	           value predictors and touching caches and Store Sets
//	           functionally (core.Warm: no cycle accounting);
//	measure  — detailed cycle-level simulation; the first
//	           DetailWarmup µ-ops refill the pipeline and are
//	           discarded, the remaining Measure µ-ops produce the
//	           window's IPC.
//
// Because the simulator is deterministic, a given (config, workload,
// spec) always produces the same estimate — sampled results are as
// cacheable and comparable as full runs, they just cost a fraction of
// the detailed cycles. The accompanying differential test harness
// (sampling_diff_test.go at the repository root) checks that the
// estimate brackets the full-run IPC for every named configuration.
package sample

import (
	"context"
	"fmt"
	"math"

	"eole/internal/core"
)

// Structural ceilings for Validate. Specs arrive from untrusted
// sources (the eoled HTTP API), so every field the sampler loops or
// allocates by must be bounded.
const (
	minWindows = 2       // one window has no variance, hence no CI
	maxWindows = 1 << 12 // window IPCs are retained for the estimate
	maxPhase   = 1 << 40 // per-phase µ-op ceilings
)

// defaultDetailWarmup is the detailed pre-measurement run used when a
// spec leaves DetailWarmup zero: enough to drain the pipeline-fill
// transient after a flush (the in-flight window is at most a few
// hundred µ-ops) without denting the fast-forward economics.
const defaultDetailWarmup = 2048

// Spec configures sampled simulation. It is plain data: it marshals
// to JSON losslessly (the eoled wire form), and its canonical
// encoding participates in result-cache identity, so a sampled run
// never shares a cache entry with a full run or with a differently
// sampled one.
type Spec struct {
	// Windows is the number of measurement windows (>= 2; the CLT
	// interval needs a variance estimate).
	Windows int `json:"windows"`
	// Skip is the per-window fast-forward length in µ-ops: advanced
	// with no state updates at all.
	Skip uint64 `json:"skip"`
	// Warm is the per-window functional-warming length in µ-ops:
	// predictors, caches and Store Sets are updated, cycles are not
	// modelled.
	Warm uint64 `json:"warm"`
	// Measure is the per-window measured length in µ-ops. Zero means
	// "divide the run's total measure budget evenly across windows"
	// (the Plan resolves it), which makes a sampled run directly
	// comparable to a full run with the same (warmup, measure)
	// arguments.
	Measure uint64 `json:"measure,omitempty"`
	// DetailWarmup is the detailed (cycle-accurate) run preceding
	// each measurement, discarded from statistics; it refills the
	// pipeline, IQ and ROB after the fast-forward. Zero selects a
	// small default.
	DetailWarmup uint64 `json:"detail_warmup,omitempty"`
}

// Validate rejects structurally impossible specs with errors naming
// the offending field.
func (s Spec) Validate() error {
	switch {
	case s.Windows < minWindows:
		return fmt.Errorf("sample: windows(%d) must be >= %d (the confidence interval needs a variance estimate)", s.Windows, minWindows)
	case s.Windows > maxWindows:
		return fmt.Errorf("sample: windows(%d) must be <= %d", s.Windows, maxWindows)
	case s.Skip > maxPhase:
		return fmt.Errorf("sample: skip(%d) must be <= %d", s.Skip, maxPhase)
	case s.Warm > maxPhase:
		return fmt.Errorf("sample: warm(%d) must be <= %d", s.Warm, maxPhase)
	case s.Measure > maxPhase:
		return fmt.Errorf("sample: measure(%d) must be <= %d", s.Measure, maxPhase)
	case s.DetailWarmup > maxPhase:
		return fmt.Errorf("sample: detail_warmup(%d) must be <= %d", s.DetailWarmup, maxPhase)
	}
	return nil
}

// Plan is a fully resolved sampling schedule: Spec with the derived
// per-window measure and the DetailWarmup default applied.
type Plan struct {
	Windows      int
	Skip         uint64
	Warm         uint64
	DetailWarmup uint64
	Measure      uint64 // per-window, always > 0
}

// Plan resolves the spec against a run's total measure budget: a zero
// per-window Measure becomes totalMeasure/Windows, and a zero
// DetailWarmup becomes the package default.
func (s Spec) Plan(totalMeasure uint64) (Plan, error) {
	if err := s.Validate(); err != nil {
		return Plan{}, err
	}
	p := Plan{
		Windows:      s.Windows,
		Skip:         s.Skip,
		Warm:         s.Warm,
		DetailWarmup: s.DetailWarmup,
		Measure:      s.Measure,
	}
	if p.Measure == 0 {
		p.Measure = totalMeasure / uint64(s.Windows)
	}
	if p.Measure == 0 {
		return Plan{}, fmt.Errorf("sample: %d windows over a %d-µ-op measure budget leaves empty windows (set measure >= windows, or a per-window measure in the spec)",
			s.Windows, totalMeasure)
	}
	if p.DetailWarmup == 0 {
		p.DetailWarmup = defaultDetailWarmup
	}
	return p, nil
}

// FlushAllowance is the per-window stream budget for the µ-ops
// FlushPipeline discards at the window boundary: the detailed run
// fetches ahead of its commit target, and those already-consumed
// in-flight µ-ops are dropped when the next fast-forward starts. The
// bound mirrors trace.ReplaySlack's rationale — the in-flight set
// (window + fetch queue + the pending µ-op) stays well under 4096
// for every named configuration. A custom machine that fetches
// further ahead (ROB beyond ~2000 entries, oversized fetch queue)
// discards more per window than this; callers who know the config
// must budget windows × (trace.SlackFor(cfg) − FlushAllowance) extra
// stream on top of StreamNeed when sizing traces (the simsvc trace
// store and eolesim do).
const FlushAllowance = 4096

// PerWindow returns the µ-ops one window nominally consumes from the
// source (jitter adds up to jitterRange(p) more, and the window
// boundary discards up to FlushAllowance in-flight µ-ops).
func (p Plan) PerWindow() uint64 {
	return p.Skip + p.Warm + p.DetailWarmup + p.Measure
}

// Total returns the µ-ops the whole schedule may consume from the
// source (excluding any initial warm-up the caller adds): the nominal
// phases plus the worst-case placement jitter plus the per-window
// flush discard, saturating instead of overflowing. Size trace
// recordings from this (via Spec.StreamNeed) — a tighter budget can
// run dry mid-schedule.
func (p Plan) Total() uint64 {
	per := p.PerWindow() + jitterRange(p) + FlushAllowance
	if per != 0 && uint64(p.Windows) > math.MaxUint64/per {
		return math.MaxUint64
	}
	return per * uint64(p.Windows)
}

// jitterRange is the per-window placement jitter bound: the length of
// the fast-forward phase (so a window's fast-forward is uniformly
// stretched to between one and two times its nominal length).
// Strictly periodic kernels defeat systematic sampling — windows
// placed at a fixed stride can alias with the program's period and
// all land on the same phase (the estimate is then precise and
// wrong; the namd kernel's ~90K-µ-op index period does exactly
// this). Stretching each window's fast-forward by a deterministic
// pseudo-random amount spreads the measurement positions across the
// period while staying exactly reproducible: the jitter sequence is a
// fixed-seed splitmix64 stream, so a given (config, workload, spec)
// still simulates the same windows every time. The jitter rides on
// the warm phase when there is one (keeping predictor training
// continuous) and on the skip phase otherwise.
func jitterRange(p Plan) uint64 {
	if p.Warm > 0 {
		return p.Warm
	}
	return p.Skip
}

// splitmix64 is the jitter PRNG step (Vigna's SplitMix64): one
// 64-bit state in, one well-mixed output and the advanced state out.
func splitmix64(state uint64) (out, next uint64) {
	next = state + 0x9E3779B97F4A7C15
	z := next
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31), next
}

// nextJitter draws one window's placement jitter in [0, jrange] and
// advances the PRNG state. Run and StreamConsumed both draw through
// this, so the accounting matches the execution exactly.
func nextJitter(rng, jrange uint64) (jitter, next uint64) {
	if jrange == 0 {
		return 0, rng
	}
	out, next := splitmix64(rng)
	return out % (jrange + 1), next
}

// StreamConsumed returns the exact µ-ops the schedule draws from the
// source through its phases: warmup plus every window's nominal
// phases plus the deterministic jitter sequence. It excludes the
// small per-window flush discard (bounded by FlushAllowance but
// config-dependent), so it slightly understates true consumption —
// use StreamNeed, which budgets the worst case, to size traces; use
// this for throughput accounting. Returns MaxUint64 when the spec
// does not resolve.
func (s Spec) StreamConsumed(warmup, totalMeasure uint64) uint64 {
	p, err := s.Plan(totalMeasure)
	if err != nil {
		return math.MaxUint64
	}
	total := warmup
	jrange := jitterRange(p)
	rng := uint64(0)
	var jitter uint64
	for w := 0; w < p.Windows; w++ {
		jitter, rng = nextJitter(rng, jrange)
		add := p.PerWindow() + jitter
		if total > math.MaxUint64-add {
			return math.MaxUint64
		}
		total += add
	}
	return total
}

// StreamNeed returns the µ-ops a sampled run with this spec consumes
// from its source: warmup (functionally warmed before the first
// window) plus every window, saturating instead of overflowing.
// Callers sizing trace recordings add their replay slack on top.
func (s Spec) StreamNeed(warmup, totalMeasure uint64) uint64 {
	p, err := s.Plan(totalMeasure)
	if err != nil {
		return math.MaxUint64
	}
	t := p.Total()
	if warmup > math.MaxUint64-t {
		return math.MaxUint64
	}
	return warmup + t
}

// Estimate is the result of a sampled run.
//
// The statistics are computed in CPI space, following SMARTS: every
// window measures the same number of committed µ-ops (up to the
// core's commit-group overshoot), so the mean of the per-window CPIs
// is an unbiased estimator of the full run's instruction-weighted CPI
// (total cycles over total commits), which a mean of per-window IPCs
// is not. The IPC estimate is the
// reciprocal of the mean CPI, and its confidence half-width is the
// CPI interval mapped through that reciprocal (conservatively: the
// wider of the two asymmetric sides).
type Estimate struct {
	// WindowIPC holds one IPC per completed measurement window
	// (reciprocals of the window CPIs, for inspection and tests).
	WindowIPC []float64
	// CPIMean and CPIHalfWidth are the window-CPI mean and its CLT
	// 95% confidence half-width 1.96·s/√n (s is the sample standard
	// deviation over windows).
	CPIMean      float64
	CPIHalfWidth float64
	// IPC is the sampled IPC estimate, 1/CPIMean.
	IPC float64
	// IPCHalfWidth bounds the IPC estimate: the full-run IPC claim is
	// IPC ± IPCHalfWidth (the CPI interval mapped through 1/x, taking
	// the wider side).
	IPCHalfWidth float64
	// Stats sums the detailed counters over the measured windows
	// (cycles, commits, squashes, ...), so a sampled report can carry
	// the same counter set as a full one.
	Stats core.Stats
	// SourceExhausted reports that the µ-op source ran dry before the
	// schedule completed; WindowIPC then holds fewer than
	// Plan.Windows entries (incomplete windows are discarded to keep
	// the windows equally weighted).
	SourceExhausted bool
}

// finalize computes the mean and confidence interval from the
// accumulated window CPIs.
func (e *Estimate) finalize(cpis []float64) error {
	n := len(cpis)
	if n < minWindows {
		return fmt.Errorf("sample: only %d measurement window(s) completed before the source ran dry; need >= %d for a confidence interval", n, minWindows)
	}
	var sum float64
	for _, x := range cpis {
		sum += x
	}
	m := sum / float64(n)
	var ss float64
	for _, x := range cpis {
		d := x - m
		ss += d * d
	}
	sdev := math.Sqrt(ss / float64(n-1))
	h := 1.96 * sdev / math.Sqrt(float64(n))
	e.CPIMean, e.CPIHalfWidth = m, h
	e.IPC = 1 / m
	// Map [m-h, m+h] through 1/x; the lower CPI bound gives the wider
	// IPC side. A half-width at or beyond the mean means the estimate
	// is noise — clamp the bound to the degenerate all-of-IPC claim.
	if h < m {
		e.IPCHalfWidth = 1/(m-h) - 1/m
	} else {
		e.IPCHalfWidth = 1 / m
	}
	return nil
}

// Run executes the schedule on a prepared core (constructed for the
// target config and source, optionally pre-warmed by the caller) and
// returns the estimate. The core is left flushed after the final
// window; its cumulative predictor and cache state covers everything
// warmed or measured.
//
// Cancellation: ctx is checked in every phase (the fast-forward loops
// and the detailed cycle loop both poll it); a canceled run returns
// ctx.Err() and no estimate — partial estimates are not comparable.
func Run(ctx context.Context, c *core.Core, p Plan) (*Estimate, error) {
	est := &Estimate{}
	cpis := make([]float64, 0, p.Windows)
	jrange := jitterRange(p)
	rng := uint64(0)
	for w := 0; w < p.Windows; w++ {
		// Deterministic placement jitter (see jitterRange).
		var jitter uint64
		jitter, rng = nextJitter(rng, jrange)
		skip, warm := p.Skip, p.Warm
		if warm > 0 {
			warm += jitter
		} else {
			skip += jitter
		}
		// Discard the previous window's in-flight µ-ops (already
		// fetched, already trained the predictors) so the stream is
		// positioned for the fast-forward.
		c.FlushPipeline()
		if skip > 0 {
			done, err := c.SkipContext(ctx, skip)
			if err != nil {
				return nil, err
			}
			if done < skip {
				est.SourceExhausted = true
				break
			}
		}
		if warm > 0 {
			done, err := c.WarmContext(ctx, warm)
			if err != nil {
				return nil, err
			}
			if done < warm {
				est.SourceExhausted = true
				break
			}
		}
		c.ResetStats()
		if p.DetailWarmup > 0 {
			st, err := c.RunContext(ctx, p.DetailWarmup)
			if err != nil {
				return nil, err
			}
			if st.Committed < p.DetailWarmup {
				est.SourceExhausted = true
				break
			}
			c.ResetStats()
		}
		st, err := c.RunContext(ctx, p.Measure)
		if err != nil {
			return nil, err
		}
		if st.Committed < p.Measure {
			// A truncated window breaks the equal-weight invariant
			// behind the CPI estimator; discard it.
			est.SourceExhausted = true
			break
		}
		cpi := float64(st.Cycles) / float64(st.Committed)
		cpis = append(cpis, cpi)
		est.WindowIPC = append(est.WindowIPC, 1/cpi)
		est.Stats.Add(st)
	}
	if err := est.finalize(cpis); err != nil {
		return nil, err
	}
	return est, nil
}
