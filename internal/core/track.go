package core

import (
	"eole/internal/config"
	"eole/internal/prog"
	"eole/internal/trace"
	"eole/internal/workload"
)

// predictorKey is everything predictor construction reads from a
// config, and newLive reads nothing else. A config bit that made
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
// it runs no predictors.
func NewReplay(cfg config.Config, t *trace.Trace, w workload.Workload) (*Core, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	recs, err := t.RecordsFor(w)
	if err != nil {
		return nil, err
	}
	return newCore(cfg, &trackSource{recs: recs, tmpl: w.Program.FetchTemplate(), verdicts: TrackFor(cfg, t, w).verdicts}), nil
}

// trackSource is a tracked core's stream: its trace's shared records
// over the program's fetch template, each paired with the verdict of
// the key's track at its seq. A batch is a view of the rest of one
// shared chunk and of the track; skipping moves the record cursor.
type trackSource struct {
	recs     *trace.Records
	tmpl     []prog.FetchOp
	verdicts []verdict // the whole track
}

func (t *trackSource) fill(b *batch) bool {
	b.ops, b.addrs, b.seq = t.recs.Next()
	b.n, b.mem, b.pair, b.tmpl, b.verdicts = len(b.ops), 0, nil, t.tmpl, t.verdicts[b.seq:]
	return b.n > 0
}

func (t *trackSource) seek(n uint64) (uint64, bool) { return t.recs.Skip(n), true }

// TrackFor returns t's prediction track for cfg's predictor key, built
// over the whole trace by its first caller; the callers racing it wait
// for that build. t must be a trace of w that SourceFor accepts.
func TrackFor(cfg config.Config, t *trace.Trace, w workload.Workload) *Track {
	key := keyOf(cfg)
	return t.Track(key, func() trace.Track { return buildTrack(key, t, w) }).(*Track)
}

// buildTrack runs a fresh live source's predictors for key over the
// whole of t, read through a streaming cursor, so building leaves
// nothing decoded in the trace. The pair and the cursor go when it
// returns.
func buildTrack(key predictorKey, t *trace.Trace, w workload.Workload) *Track {
	src, err := t.SourceFor(w)
	if err != nil {
		panic(err)
	}
	l := newLive(key, src)
	v := make([]verdict, 0, t.Count)
	for b := src.NextBatch(l.buf); len(b) > 0; b = src.NextBatch(l.buf) {
		for i := range b {
			v = append(v, l.firstFetchPredict(&b[i]))
		}
	}
	return &Track{verdicts: v}
}

// SizeBytes implements trace.Track: a verdict byte per µ-op.
func (t *Track) SizeBytes() uint64 { return uint64(len(t.verdicts)) }
