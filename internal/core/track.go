package core

import (
	"fmt"
	"sync"

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

// blockOps is a track block's length in µ-ops: internal/trace's chunk.
const blockOps = 4096

// Track is a trace's prediction track for one predictor key: the
// verdict firstFetchPredict gives each µ-op of the stream, in blocks of
// blockOps, built as far as some core has needed. Predictors train at
// first fetch in stream order, so a verdict depends on the stream and
// the key alone (ARCHITECTURE.md, "Prediction tracks").
type Track struct {
	mu     sync.Mutex
	preds  predictors    // the builder's own pair; dropped when the stream ends
	src    *trace.Replay // streaming: building leaves nothing decoded in the trace
	blocks [][]verdict
}

// NewReplay builds a core for a full run of cfg over t, a trace of w,
// whose verdicts come from TrackFor: it has no predictors of its own,
// only bpred.Unit's counters, kept as OnBranch keeps them.
func NewReplay(cfg config.Config, t *trace.Trace, w workload.Workload) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	src, err := t.SourceFor(w)
	if err != nil {
		return nil, err
	}
	c := newCore(cfg, src, predictors{bp: &bpred.Unit{}})
	c.track = TrackFor(cfg, t, w)
	return c, nil
}

// TrackFor returns t's prediction track for cfg's predictor key, made
// on first use. t must be a trace of w that SourceFor accepts.
func TrackFor(cfg config.Config, t *trace.Trace, w workload.Workload) *Track {
	key := keyOf(cfg)
	return t.Track(key, func() trace.Track {
		src, err := t.SourceFor(w)
		if err != nil {
			panic(err)
		}
		return &Track{preds: newPredictors(key), src: src.Stream()}
	}).(*Track)
}

// Build builds the track over the stream's first n µ-ops, or all of
// them, ahead of the cores that would build it as they reach them.
func (t *Track) Build(n uint64) {
	if n > 0 {
		t.cover(n - 1)
	}
}

// cover returns the blocks, built on until they hold seq's verdict or
// the stream ends. Blocks never change once appended, so a core reads
// those its snapshot holds without the lock.
func (t *Track) cover(seq uint64) [][]verdict {
	t.mu.Lock()
	defer t.mu.Unlock()
	for uint64(len(t.blocks)) <= seq/blockOps && t.src != nil {
		b := make([]verdict, 0, blockOps)
		var u prog.MicroOp
		for len(b) < blockOps && t.src.Next(&u) {
			b = append(b, t.preds.firstFetchPredict(&u))
		}
		if len(b) > 0 {
			t.blocks = append(t.blocks, b)
		}
		if len(b) < blockOps {
			t.preds, t.src = predictors{}, nil
		}
	}
	return t.blocks
}

// SizeBytes implements trace.Track: the verdict bytes built so far.
func (t *Track) SizeBytes() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var n uint64
	for _, b := range t.blocks {
		n += uint64(len(b))
	}
	return n
}

// untracked panics on a core with a track, for what moves the stream
// without fetching: a live core's predictors would miss what it passes.
func (c *Core) untracked(what string) {
	if c.track != nil {
		panic("core: " + what + " on a core replaying a prediction track")
	}
}
