package simsvc

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sort"
	"sync"
	"time"

	"eole"
	"eole/internal/artifact"
	"eole/internal/trace"
	"eole/internal/workload"
)

// traceStore holds one recorded µ-op trace per workload and hands out
// replay-ready traces to the simulation workers: record-on-miss,
// replay-on-hit, with single-flight recording so concurrent sweep jobs
// over the same workload share one interpretation.
//
// Traces are keyed by workload only — the stream is configuration-
// independent, which is the whole point: a (configs × workloads) sweep
// interprets each workload once instead of once per cell. A stored
// trace serves any request it is long enough for (Trace.CanServe);
// a longer request triggers a longer re-recording that replaces the
// shorter one.
//
// Recordings go to the artifact store under the TraceKeyOf content
// address: a store with a directory keeps them for later processes,
// and one with a peer makes them fetchable by the whole cluster, so a
// workload is interpreted once fleet-wide. Corrupted, truncated or
// version-mismatched artifacts are ignored (counted in the service
// metrics; footer-level corruption is quarantined by the fabric
// itself) and overwritten by a fresh recording — the caller falls
// back to execute-driven recording, never to a wrong stream.
type traceStore struct {
	store  *artifact.Store
	maxOps uint64 // Options.TraceMaxOps; see ceilingFor
	m      *metrics

	mu  sync.Mutex
	mem map[string]*trace.Trace  // workload short name -> longest trace
	rec map[string]chan struct{} // in-flight recordings (single-flight), closed when done
}

func newTraceStore(store *artifact.Store, maxOps uint64, m *metrics) *traceStore {
	return &traceStore{
		store:  store,
		maxOps: maxOps,
		m:      m,
		mem:    make(map[string]*trace.Trace),
		rec:    make(map[string]chan struct{}),
	}
}

// TraceKeyOf is the artifact-fabric content address of workload w's
// recorded trace: a SHA-256 over the trace format version, the
// workload's short name and its program hash. Folding the format
// version and program hash into the key means a store shared by
// mixed builds can never hand a worker a trace its decoder or its
// program disagrees with — each build addresses its own artifact.
// (The trace payload additionally self-validates both on load.)
func TraceKeyOf(w workload.Workload) string {
	h := sha256.Sum256(fmt.Appendf(nil, "eole-trace\x00v%d\x00%s\x00%016x",
		trace.Version, w.Short, trace.ProgramHash(w.Program)))
	return hex.EncodeToString(h[:])
}

// roundUpOps pads a needed trace length so a server receiving a
// spread of run lengths records a few trace generations per workload
// instead of one per distinct (warmup, measure) pair: to the next
// power of two (at least 64K µ-ops) up to 1M, and to the next 256K
// above it. Only sampled runs reach past 1M, and there a power of two
// overshoots by up to a million µ-ops of recording for nothing: the
// benchmark's sampled long-dram cell needs 2.74–2.78M µ-ops over its
// range of skips and is served by one 2.88M recording, where 4M would
// interpret 1.1M µ-ops more and hold their payload too.
func roundUpOps(need uint64) uint64 {
	const floor, fine = 1 << 16, 1 << 18
	switch {
	case need <= floor:
		return floor
	case need <= 1<<20:
		return 1 << bits.Len64(need-1)
	case need > math.MaxUint64-fine:
		return need
	}
	return (need + fine - 1) / fine * fine
}

// streamFactor is how much longer than maxOps a trace may be for a
// request that streams it. maxOps budgets decoded µ-ops, at most 12
// bytes each in a shared chunk (4 per µ-op plus 8 per load or store;
// 5.5 on average over the 19 workloads); a streaming cursor leaves none
// behind, so what its trace pins is the encoded payload, a load-value
// log of 2.7 B/µ-op at the densest (milc; long-dram 0.15). 16 times the
// µ-ops is therefore up to 43 B per maxOps µ-op, about 3.6 times the
// 12 B a full run's decoded budget costs at worst. The factor is kept,
// not derived from that ratio: changing it changes which sampled runs
// replay, which is for a byte budget over payload, chunks and tracks to
// decide when it replaces both bounds.
const streamFactor = 16

// ceilingFor is the longest trace req may replay. The measure is
// decoded memory: a full run reads its whole stream through the
// trace's shared chunks and is held to maxOps; a sampled run's cursor
// streams (eole.WithSampling over WithReplay) and leaves nothing
// decoded, so it is admitted streamFactor times as far.
func (ts *traceStore) ceilingFor(req Request) uint64 {
	if req.Sampling == nil {
		return ts.maxOps
	}
	if ts.maxOps > math.MaxUint64/streamFactor {
		return math.MaxUint64
	}
	return ts.maxOps * streamFactor
}

// traceFor returns a trace able to serve a run that fetches up to
// need µ-ops of w, recording one (of at most ceiling µ-ops) if
// necessary. It returns an error when need exceeds ceiling (the
// caller simulates execute-driven) — never a too-short trace. ctx
// bounds the artifact peer fetch, not the recording itself.
func (ts *traceStore) traceFor(ctx context.Context, w workload.Workload, need, ceiling uint64) (*trace.Trace, error) {
	if need > ceiling {
		return nil, fmt.Errorf("simsvc: trace of %d µ-ops exceeds ceiling %d", need, ceiling)
	}
	for {
		ts.mu.Lock()
		if t := ts.mem[w.Short]; t != nil && t.CanServe(need) {
			ts.mu.Unlock()
			return t, nil
		}
		if done := ts.rec[w.Short]; done != nil {
			ts.mu.Unlock()
			<-done
			// The finished recording may still be shorter than this
			// request needs; loop to re-check and possibly re-record.
			continue
		}
		done := make(chan struct{})
		ts.rec[w.Short] = done
		ts.mu.Unlock()

		t, fresh := ts.record(ctx, w, need, ceiling)
		ts.mu.Lock()
		if old := ts.mem[w.Short]; old == nil || t.CanServe(old.Count) {
			ts.mem[w.Short] = t
		}
		delete(ts.rec, w.Short)
		ts.mu.Unlock()
		close(done)
		if fresh {
			// The recording's machine, with the workload image it forked
			// (the pages it touched and Setup's backing data), is garbage
			// now. Collected here, after the waiters are released, it
			// cannot set the next heap goal: a collection during mcf's
			// recording sets it to ~34 MB over a live heap under 1 MB,
			// and garbage fills that before the next one (sampled_long's
			// peak_rss_mb reads ~62 MiB without this call, ~49 with it).
			// Once per recorded trace; a loaded one built no image.
			runtime.GC()
		}
		if t.CanServe(need) {
			return t, nil
		}
	}
}

// record loads a long-enough trace from the artifact fabric or
// records a fresh one (and persists it), reporting which with fresh.
// Called outside the store lock — both paths are expensive.
func (ts *traceStore) record(ctx context.Context, w workload.Workload, need, ceiling uint64) (t *trace.Trace, fresh bool) {
	if t := ts.load(ctx, w, need); t != nil {
		return t, false
	}
	n := roundUpOps(need)
	if n > ceiling {
		n = ceiling
	}
	start := time.Now()
	t = trace.Record(w, n)
	ts.m.tracesRecorded.Add(1)
	ts.m.traceRecordNanos.Add(int64(time.Since(start)))
	ts.spill(t, w)
	return t, true
}

// load returns the persisted trace for w if the fabric holds one that
// validates, matches the workload's current program and is long
// enough; any failure is a miss (the fresh recording overwrites the
// artifact).
func (ts *traceStore) load(ctx context.Context, w workload.Workload, need uint64) *trace.Trace {
	b, err := ts.store.Get(ctx, artifact.KindTrace, TraceKeyOf(w))
	if err != nil {
		return nil // never stored (or quarantined by the fabric); not a load error
	}
	// The trace aliases b, which is also what the fabric's memory tier
	// holds: a loaded trace's bytes exist once (and so do a recorded
	// one's; see spill).
	t, err := trace.Parse(b)
	if err != nil {
		// Corrupt, truncated or version-mismatched payload that still
		// passed the fabric's footer CRC: fall back to execute-driven
		// recording.
		ts.m.traceLoadErrors.Add(1)
		return nil
	}
	if !t.CanServe(need) {
		return nil
	}
	if _, err := t.SourceFor(w); err != nil {
		// Program changed since the trace was recorded.
		ts.m.traceLoadErrors.Add(1)
		return nil
	}
	ts.m.traceDiskLoads.Add(1)
	return t
}

// spill persists a recording to the fabric and shares it with the
// peer (the cluster coordinator, for workers) so the rest of the
// fleet replays instead of re-recording. Best-effort: a read-only or
// full store degrades to memory-only. t must not be shared yet: its
// payload moves into the encoded bytes the fabric's memory tier keeps,
// so its bytes exist once, as a loaded trace's do.
func (ts *traceStore) spill(t *trace.Trace, w workload.Workload) {
	b := t.Encode()
	key := TraceKeyOf(w)
	_ = ts.store.Put(artifact.KindTrace, key, b)
	// The push is bounded on its own context: the recording job must
	// not hang on a wedged coordinator.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	ts.store.Share(ctx, artifact.KindTrace, key, b)
}

// TraceInfo describes one stored trace (the /v1/traces wire form).
type TraceInfo struct {
	Workload string `json:"workload"`
	Uops     uint64 `json:"uops"`
	Bytes    int    `json:"bytes"`
	Complete bool   `json:"complete"`
	// DecodedUops is how many of Uops the trace holds decoded for its
	// full-run replays: what TraceMaxOps bounds.
	DecodedUops uint64 `json:"decoded_uops"`
	// DecodedBytes is the memory those decoded µ-ops take: 4 bytes each
	// plus 8 per load or store.
	DecodedBytes uint64 `json:"decoded_bytes"`
	// TrackBytes is what its full-run replays' prediction tracks hold:
	// a verdict byte per µ-op of the trace, per predictor key.
	TrackBytes uint64 `json:"track_bytes"`
}

// infos snapshots the in-memory store, sorted by workload.
func (ts *traceStore) infos() []TraceInfo {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	out := make([]TraceInfo, 0, len(ts.mem))
	for _, t := range ts.mem {
		out = append(out, TraceInfo{
			Workload:     t.Workload,
			Uops:         t.Count,
			Bytes:        t.SizeBytes(),
			Complete:     t.Complete,
			DecodedUops:  t.DecodedUops(),
			DecodedBytes: t.DecodedBytes(),
			TrackBytes:   t.TrackBytes(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Workload < out[j].Workload })
	return out
}

// Traces lists the traces currently held in memory, sorted by
// workload.
func (s *Service) Traces() []TraceInfo { return s.traces.infos() }

// traceSource resolves a replay trace for req, or nil to simulate
// execute-driven (a length that overflows ReplayNeed, a request over
// the ceiling, or a recording problem — each counted as a fallback).
// ctx bounds the artifact peer fetch.
func (s *Service) traceSource(ctx context.Context, w workload.Workload, req Request) *trace.Trace {
	// The need is sized from the request's own configuration, so an
	// undersized trace can never be replayed silently; 0 is overflow.
	need := eole.ReplayNeed(req.Config, req.Warmup, req.Measure, req.Sampling)
	if need == 0 {
		s.m.traceFallbacks.Add(1)
		return nil
	}
	ceiling := s.traces.ceilingFor(req)
	t, err := s.traces.traceFor(ctx, w, need, ceiling)
	if err == nil {
		// The stored trace may be longer than this run may replay: one
		// recorded for a sampled run, or loaded from the fabric. A run is
		// served no more than its ceiling of it, so a full run's chunks and
		// prediction tracks stay within TraceMaxOps µ-ops.
		t, err = t.Head(w, ceiling)
	}
	if err != nil {
		s.m.traceFallbacks.Add(1)
		return nil
	}
	return t
}
