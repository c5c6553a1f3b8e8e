package core

import (
	"fmt"

	"eole/internal/bpred"
	"eole/internal/config"
	"eole/internal/prog"
	"eole/internal/trace"
	"eole/internal/vpred"
	"eole/internal/workload"
)

// predictors is the front end's predictor pair, what firstFetchPredict
// computes a verdict with.
type predictors struct {
	bp *bpred.Unit
	vp vpred.Predictor // nil without value prediction
}

// predictorKey is everything predictor construction reads from a
// config, and newPredictors reads nothing else. A config bit that made
// verdicts depend on timing (training at commit, say) would have to
// give its configs no track.
type predictorKey struct {
	valuePrediction bool
	predictorName   string
}

func keyOf(cfg config.Config) predictorKey {
	if !cfg.ValuePrediction {
		return predictorKey{} // the name is not read
	}
	return predictorKey{valuePrediction: true, predictorName: cfg.PredictorName}
}

func newPredictors(k predictorKey) predictors {
	p := predictors{bp: bpred.NewUnit()}
	if k.valuePrediction {
		vp, ok := vpred.NewByName(k.predictorName)
		if !ok {
			panic(fmt.Sprintf("core: unknown value predictor %q", k.predictorName)) // Validate rejects it
		}
		p.vp = vp
	}
	return p
}

// Track is a trace's prediction track for one predictor key: the
// verdict firstFetchPredict gives each µ-op of the whole stream, by
// seq. Predictors train at first fetch in stream order, so a verdict
// depends on the stream and the key alone (ARCHITECTURE.md, "Prediction
// tracks"). It is built whole, once, and holds nothing but the verdicts.
type Track struct {
	verdicts []verdict
}

// NewReplay builds a core for a full run of cfg over t, a trace of w: it
// reads the trace's shared records, completes each from w's program
// (prog.Program.FetchTemplate) and takes its verdicts from TrackFor, so
// it has no predictors of its own, only bpred.Unit's counters, kept as
// OnBranch keeps them.
func NewReplay(cfg config.Config, t *trace.Trace, w workload.Workload) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	recs, err := t.RecordsFor(w)
	if err != nil {
		return nil, err
	}
	c := newCore(cfg, predictors{bp: &bpred.Unit{}})
	c.recs, c.tmpl, c.verdicts = recs, w.Program.FetchTemplate(), TrackFor(cfg, t, w).verdicts
	return c, nil
}

// TrackFor returns t's prediction track for cfg's predictor key, built
// over the whole trace by its first caller; the callers racing it wait
// for that build. t must be a trace of w that SourceFor accepts.
func TrackFor(cfg config.Config, t *trace.Trace, w workload.Workload) *Track {
	key := keyOf(cfg)
	return t.Track(key, func() trace.Track { return buildTrack(key, t, w) }).(*Track)
}

// buildTrack runs a fresh predictor pair for key over the whole of t,
// read through a streaming cursor, so building leaves nothing decoded
// in the trace. The pair and the cursor go when it returns.
func buildTrack(key predictorKey, t *trace.Trace, w workload.Workload) *Track {
	src, err := t.SourceFor(w)
	if err != nil {
		panic(err)
	}
	preds := newPredictors(key)
	v := make([]verdict, 0, t.Count)
	buf := make([]prog.MicroOp, srcBatchSize)
	for b := src.NextBatch(buf); len(b) > 0; b = src.NextBatch(buf) {
		for i := range b {
			v = append(v, preds.firstFetchPredict(&b[i]))
		}
	}
	return &Track{verdicts: v}
}

// SizeBytes implements trace.Track: a verdict byte per µ-op.
func (t *Track) SizeBytes() uint64 { return uint64(len(t.verdicts)) }

// untracked panics on a core with a track, for what moves the stream
// without fetching: a live core's predictors would miss what it passes.
func (c *Core) untracked(what string) {
	if c.recs != nil {
		panic("core: " + what + " on a core replaying a prediction track")
	}
}
