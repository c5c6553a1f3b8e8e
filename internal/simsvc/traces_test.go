package simsvc

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	rtmetrics "runtime/metrics"
	"sync"
	"testing"

	"eole"
	"eole/internal/artifact"
	"eole/internal/trace"
	"eole/internal/workload"
)

// fixCRC rewrites the trailing CRC-32 of a raw trace payload so that
// a deliberate header mutation is not (also) rejected as corruption.
func fixCRC(raw []byte) {
	body := raw[:len(raw)-4]
	binary.LittleEndian.PutUint32(raw[len(raw)-4:], crc32.ChecksumIEEE(body))
}

// traceArtifactPath is where a fabric rooted at dir stores the trace of
// the named workload: <dir>/trace/<shard>/<key>.art.
func traceArtifactPath(t *testing.T, dir, name string) string {
	t.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	key := TraceKeyOf(w)
	return filepath.Join(dir, "trace", key[:2], key+".art")
}

// corruptPayload flips one payload byte of an artifact file while
// keeping the fabric footer valid — i.e. payload-level corruption the
// fabric's CRC cannot catch, only the trace decoder can.
func corruptPayload(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const footer = 16 // crc32 LE(4) + length LE(8) + magic(4)
	payload := raw[:len(raw)-footer]
	payload[len(payload)/2] ^= 0xFF
	binary.LittleEndian.PutUint32(raw[len(raw)-footer:], crc32.ChecksumIEEE(payload))
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// dirStore opens an artifact store rooted at dir, as a process started
// with -artifact-dir does: each call is a fresh process's view of it.
func dirStore(t *testing.T, dir string) *artifact.Store {
	t.Helper()
	store, err := artifact.Open(artifact.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return store
}

func submitWait(t *testing.T, svc *Service, req Request) *eole.Report {
	t.Helper()
	j, err := svc.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	r, err := j.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// executeDriven runs req through eole.Simulate, which interprets the
// workload and replays nothing: the reference every replayed or
// reloaded report must match.
func executeDriven(t *testing.T, req Request) *eole.Report {
	t.Helper()
	w, err := eole.WorkloadByName(req.Workload)
	if err != nil {
		t.Fatal(err)
	}
	var opts []eole.SimOption
	if req.Sampling != nil {
		opts = append(opts, eole.WithSampling(*req.Sampling))
	}
	r, err := eole.Simulate(req.Config, w, req.Warmup, req.Measure, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// checkExecuteDriven fails unless got is byte-identical to req run
// execute-driven.
func checkExecuteDriven(t *testing.T, req Request, got *eole.Report) {
	t.Helper()
	bw, _ := json.Marshal(executeDriven(t, req))
	bg, _ := json.Marshal(got)
	if !bytes.Equal(bw, bg) {
		t.Errorf("%s on %s differs from the execute-driven run", req.Config.Label(), req.Workload)
	}
}

func mustConfig(t *testing.T, name string) eole.Config {
	t.Helper()
	cfg, err := eole.NamedConfig(name)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// TestTraceSweepRecordsOncePerWorkload runs a (4 configs × 2
// workloads) sweep and checks the core promise: one recording per
// workload, every simulation a replay, and results identical to an
// execute-driven run.
func TestTraceSweepRecordsOncePerWorkload(t *testing.T) {
	svc := newTestService(t, Options{Parallelism: 4})

	cfgs := []eole.Config{
		mustConfig(t, "Baseline_6_64"),
		mustConfig(t, "Baseline_VP_6_64"),
		mustConfig(t, "EOLE_6_64"),
		mustConfig(t, "EOLE_4_64"),
	}
	reqs := Cross(cfgs, []string{"gzip", "crafty"}, 2_000, 8_000)

	sweep, err := svc.SubmitSweep(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sweep.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	if st.TracesRecorded != 2 {
		t.Errorf("recorded %d traces, want 2 (one per workload)", st.TracesRecorded)
	}
	if st.TraceReplays != uint64(len(reqs)) {
		t.Errorf("replays %d, want %d (every simulation trace-driven)", st.TraceReplays, len(reqs))
	}
	if st.TraceFallbacks != 0 {
		t.Errorf("unexpected fallbacks: %d", st.TraceFallbacks)
	}

	for i, req := range reqs {
		checkExecuteDriven(t, req, got[i])
	}

	infos := svc.Traces()
	if len(infos) != 2 || infos[0].Workload != "crafty" || infos[1].Workload != "gzip" {
		t.Errorf("trace listing wrong: %+v", infos)
	}
	for _, in := range infos {
		if in.Uops < 2_000+8_000+trace.ReplaySlack {
			t.Errorf("%s: trace of %d µ-ops too short for the request", in.Workload, in.Uops)
		}
	}
}

// TestTraceRecordingSingleFlight launches many concurrent jobs that
// all need the same workload trace and checks only one recording
// happens.
func TestTraceRecordingSingleFlight(t *testing.T) {
	svc := newTestService(t, Options{Parallelism: 8})
	cfgNames := []string{
		"Baseline_6_64", "Baseline_VP_6_64", "Baseline_VP_4_64", "Baseline_VP_6_48",
		"EOLE_6_64", "EOLE_4_64", "OLE_4_64", "EOE_4_64",
	}
	var wg sync.WaitGroup
	for _, name := range cfgNames {
		cfg := mustConfig(t, name)
		wg.Add(1)
		go func() {
			defer wg.Done()
			j, err := svc.Submit(context.Background(), Request{Config: cfg, Workload: "vortex", Warmup: 1_000, Measure: 5_000})
			if err != nil {
				t.Error(err)
				return
			}
			if _, err := j.Wait(context.Background()); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	st := svc.Stats()
	if st.TracesRecorded != 1 {
		t.Errorf("recorded %d traces for one workload, want 1 (single-flight)", st.TracesRecorded)
	}
	if st.TraceReplays == 0 {
		t.Error("no replays recorded")
	}
}

// TestTraceGrowsForLongerRequest checks that a request longer than the
// stored trace triggers a longer re-recording rather than a wrong
// (short) replay.
func TestTraceGrowsForLongerRequest(t *testing.T) {
	svc := newTestService(t, Options{Parallelism: 2})
	cfg := mustConfig(t, "EOLE_4_64")
	submitWait(t, svc, Request{Config: cfg, Workload: "gzip", Warmup: 1_000, Measure: 4_000})
	first := svc.Traces()[0].Uops
	// 80k+80k exceeds the 2^17 rounding bucket of the first request.
	r := submitWait(t, svc, Request{Config: cfg, Workload: "gzip", Warmup: 80_000, Measure: 80_000})
	if r.Committed < 80_000 {
		t.Fatalf("long request committed %d", r.Committed)
	}
	st := svc.Stats()
	if st.TracesRecorded != 2 {
		t.Errorf("recorded %d traces, want 2 (short then long)", st.TracesRecorded)
	}
	second := svc.Traces()[0].Uops
	if second <= first {
		t.Errorf("trace did not grow: %d -> %d", first, second)
	}
	if st.TraceFallbacks != 0 {
		t.Errorf("unexpected fallbacks: %d", st.TraceFallbacks)
	}
}

// TestTraceOverCeilingFallsBack checks that requests longer than
// TraceMaxOps run execute-driven instead of failing.
func TestTraceOverCeilingFallsBack(t *testing.T) {
	svc := newTestService(t, Options{Parallelism: 2, TraceMaxOps: 10_000})
	cfg := mustConfig(t, "Baseline_6_64")
	r := submitWait(t, svc, Request{Config: cfg, Workload: "gzip", Warmup: 5_000, Measure: 20_000})
	if r.Committed < 20_000 {
		t.Fatalf("committed %d", r.Committed)
	}
	st := svc.Stats()
	if st.TraceFallbacks != 1 || st.TraceReplays != 0 || st.TracesRecorded != 0 {
		t.Errorf("fallbacks=%d replays=%d recorded=%d, want 1/0/0",
			st.TraceFallbacks, st.TraceReplays, st.TracesRecorded)
	}
}

// TestSampledOverCeilingStreams: a sampled run streams its trace
// instead of decoding it into shared chunks, so it replays up to 16 ×
// TraceMaxOps — the same report as execute-driven, with nothing left
// decoded — whatever its shape: skips shorter than the core's 256-µ-op
// batch buffer (which the buffer absorbs, so the cursor never hears of
// them), no skip at all, and a warm-up that is itself over the ceiling
// included. TraceMaxOps bounds decoded memory by construction, not by
// what the request looks like.
func TestSampledOverCeilingStreams(t *testing.T) {
	const maxOps = 10_000
	for name, req := range map[string]Request{
		"skips":        {Warmup: 2_000, Measure: 4_000, Sampling: &eole.SamplingSpec{Windows: 2, Skip: 5_000, Warm: 1_000}},
		"skips 1":      {Warmup: 2_000, Measure: 4_000, Sampling: &eole.SamplingSpec{Windows: 4, Skip: 1, Warm: 6_000}},
		"skips 255":    {Warmup: 2_000, Measure: 4_000, Sampling: &eole.SamplingSpec{Windows: 4, Skip: 255, Warm: 6_000}},
		"never skips":  {Warmup: 2_000, Measure: 4_000, Sampling: &eole.SamplingSpec{Windows: 2, Warm: 6_000}},
		"long warm-up": {Warmup: maxOps + 1, Measure: 4_000, Sampling: &eole.SamplingSpec{Windows: 2, Skip: 5_000, Warm: 1_000}},
	} {
		svc := newTestService(t, Options{Parallelism: 2, TraceMaxOps: maxOps})
		req.Config, req.Workload = mustConfig(t, "EOLE_4_64"), "gzip"
		if need := eole.ReplayNeed(req.Config, req.Warmup, req.Measure, req.Sampling); need <= maxOps || need > 16*maxOps {
			t.Fatalf("%s: the request needs %d µ-ops: not between 1 and 16 times the ceiling", name, need)
		}
		checkExecuteDriven(t, req, submitWait(t, svc, req))
		st := svc.Stats()
		if st.TraceReplays != 1 || st.TraceFallbacks != 0 || st.TracesRecorded != 1 {
			t.Errorf("%s: replays=%d fallbacks=%d recorded=%d, want 1/0/1",
				name, st.TraceReplays, st.TraceFallbacks, st.TracesRecorded)
		}
		if info := svc.Traces()[0]; info.Uops <= maxOps || info.DecodedUops != 0 {
			t.Errorf("%s: trace holds %d µ-ops, %d of them decoded; want more than %d and none decoded",
				name, info.Uops, info.DecodedUops, maxOps)
		}
		// A full run over the same, longer-than-ceiling trace reads only
		// what it needs: still inside the bound.
		full := Request{Config: req.Config, Workload: "gzip", Warmup: 1_000, Measure: 2_000}
		submitWait(t, svc, full)
		if info := svc.Traces()[0]; info.DecodedUops == 0 || info.DecodedUops > maxOps {
			t.Errorf("%s: a full run left %d µ-ops decoded, want some and at most TraceMaxOps = %d",
				name, info.DecodedUops, maxOps)
		}
	}
}

// TestFullRunAfterLongSampledRecording: full runs served by the trace a
// sampled run recorded to 16 × TraceMaxOps replay its first TraceMaxOps
// µ-ops only, so their decoded chunks stay within TraceMaxOps and each
// predictor key's track holds TraceMaxOps verdicts, not the 16 times as
// many a track over the whole trace would — and every report is still
// the execute-driven one.
func TestFullRunAfterLongSampledRecording(t *testing.T) {
	const maxOps = 10_000
	svc := newTestService(t, Options{Parallelism: 2, TraceMaxOps: maxOps})
	sampled := Request{Config: mustConfig(t, "EOLE_4_64"), Workload: "gzip", Warmup: 2_000, Measure: 4_000,
		Sampling: &eole.SamplingSpec{Windows: 2, Skip: 60_000, Warm: 1_000}}
	submitWait(t, svc, sampled)
	if info := svc.Traces()[0]; info.Uops != 16*maxOps {
		t.Fatalf("the sampled run recorded %d µ-ops, want 16 × TraceMaxOps", info.Uops)
	}
	// Two predictor keys: no value prediction, and the named configs' one.
	for _, name := range []string{"Baseline_6_64", "EOLE_4_64", "Baseline_VP_6_64"} {
		full := Request{Config: mustConfig(t, name), Workload: "gzip", Warmup: 1_000, Measure: 2_000}
		checkExecuteDriven(t, full, submitWait(t, svc, full))
	}
	if st := svc.Stats(); st.TracesRecorded != 1 || st.TraceFallbacks != 0 {
		t.Errorf("recorded=%d fallbacks=%d, want 1/0", st.TracesRecorded, st.TraceFallbacks)
	}
	info := svc.Traces()[0]
	if info.Uops != 16*maxOps || info.DecodedUops == 0 || info.DecodedUops > maxOps || info.TrackBytes != 2*maxOps {
		t.Errorf("after the full runs the trace holds %d µ-ops, %d decoded and %d track bytes; want %d, 1..%d and %d",
			info.Uops, info.DecodedUops, info.TrackBytes, 16*maxOps, maxOps, 2*maxOps)
	}
}

// TestSampledBeyondStreamCeilingFallsBack: a sampled run that needs
// more than 16 × TraceMaxOps runs execute-driven.
func TestSampledBeyondStreamCeilingFallsBack(t *testing.T) {
	svc := newTestService(t, Options{Parallelism: 1, TraceMaxOps: 10_000})
	submitWait(t, svc, Request{
		Config: mustConfig(t, "EOLE_4_64"), Workload: "gzip", Warmup: 2_000, Measure: 4_000,
		Sampling: &eole.SamplingSpec{Windows: 2, Skip: 100_000, Warm: 1_000},
	})
	st := svc.Stats()
	if st.TraceFallbacks != 1 || st.TraceReplays != 0 || st.TracesRecorded != 0 {
		t.Errorf("fallbacks=%d replays=%d recorded=%d, want 1/0/0",
			st.TraceFallbacks, st.TraceReplays, st.TracesRecorded)
	}
}

// traceReq is a short run of one workload; the persistence tests below
// give every service its own config, so the result kind of the shared
// fabric never answers and the trace kind is what gets exercised.
func traceReq(t *testing.T, config, wl string) Request {
	t.Helper()
	return Request{Config: mustConfig(t, config), Workload: wl, Warmup: 1_000, Measure: 4_000}
}

// TestTracePersistsAcrossServices records through one service and
// checks a second service over the same fabric replays a sibling
// config from the spilled artifact without re-recording.
func TestTracePersistsAcrossServices(t *testing.T) {
	dir := t.TempDir()

	a := newTestService(t, Options{Parallelism: 2, Artifacts: dirStore(t, dir)})
	submitWait(t, a, traceReq(t, "EOLE_4_64", "crafty"))
	if st := a.Stats(); st.TracesRecorded != 1 {
		t.Fatalf("first service recorded %d traces", st.TracesRecorded)
	}
	if _, err := os.Stat(traceArtifactPath(t, dir, "crafty")); err != nil {
		t.Fatalf("spill artifact missing: %v", err)
	}

	b := newTestService(t, Options{Parallelism: 2, Artifacts: dirStore(t, dir)})
	req := traceReq(t, "Baseline_6_64", "crafty")
	got := submitWait(t, b, req)
	st := b.Stats()
	if st.TracesRecorded != 0 || st.TraceDiskLoads != 1 || st.TraceReplays != 1 {
		t.Errorf("second service recorded=%d diskLoads=%d replays=%d, want 0/1/1",
			st.TracesRecorded, st.TraceDiskLoads, st.TraceReplays)
	}
	checkExecuteDriven(t, req, got)
}

// TestArtifactDirPersistsBothKinds runs one service over a store
// rooted at a single -artifact-dir and checks both spill kinds land under it —
// and that a second service over the same root serves the result from
// disk without simulating at all.
func TestArtifactDirPersistsBothKinds(t *testing.T) {
	dir := t.TempDir()
	req := traceReq(t, "EOLE_6_64", "gzip")

	a := newTestService(t, Options{Parallelism: 2, Artifacts: dirStore(t, dir)})
	want := submitWait(t, a, req)
	// The result spill runs after waiters are released; Close waits for
	// the worker, so the artifact is on disk once it returns.
	a.Close()
	if _, err := os.Stat(traceArtifactPath(t, dir, "gzip")); err != nil {
		t.Fatalf("trace artifact missing: %v", err)
	}
	key := KeyOf(req).String()
	if _, err := os.Stat(filepath.Join(dir, "result", key[:2], key+".art")); err != nil {
		t.Fatalf("result artifact missing: %v", err)
	}

	b := newTestService(t, Options{Parallelism: 2, Artifacts: dirStore(t, dir)})
	got := submitWait(t, b, req)
	st := b.Stats()
	if st.SimsRun != 0 || st.DiskHits != 1 {
		t.Errorf("second service simsRun=%d diskHits=%d, want 0/1 (result served from fabric)",
			st.SimsRun, st.DiskHits)
	}
	bw, _ := json.Marshal(want)
	bg, _ := json.Marshal(got)
	if !bytes.Equal(bw, bg) {
		t.Error("fabric-served report differs")
	}
}

// TestCorruptTraceFileFallsBack corrupts the spilled trace at the
// payload level — the fabric footer still validates, only the trace
// decoder can tell — and checks the next service counts a load error,
// re-records, and still returns correct results.
func TestCorruptTraceFileFallsBack(t *testing.T) {
	dir := t.TempDir()

	a := newTestService(t, Options{Parallelism: 1, Artifacts: dirStore(t, dir)})
	submitWait(t, a, traceReq(t, "Baseline_6_64", "gzip"))

	corruptPayload(t, traceArtifactPath(t, dir, "gzip"))

	c := newTestService(t, Options{Parallelism: 1, Artifacts: dirStore(t, dir)})
	req := traceReq(t, "EOLE_4_64", "gzip")
	got := submitWait(t, c, req)
	st := c.Stats()
	if st.TraceLoadErrors != 1 {
		t.Errorf("load errors %d, want 1", st.TraceLoadErrors)
	}
	if st.TracesRecorded != 1 || st.TraceReplays != 1 {
		t.Errorf("recorded=%d replays=%d, want 1/1 (re-record after corrupt load)",
			st.TracesRecorded, st.TraceReplays)
	}
	checkExecuteDriven(t, req, got)
	// The re-recording must have replaced the corrupt artifact: a
	// fresh service replays from it without recording.
	d := newTestService(t, Options{Parallelism: 1, Artifacts: dirStore(t, dir)})
	submitWait(t, d, traceReq(t, "EOLE_6_64", "gzip"))
	if st := d.Stats(); st.TraceDiskLoads != 1 || st.TracesRecorded != 0 || st.TraceLoadErrors != 0 {
		t.Errorf("after repair: diskLoads=%d recorded=%d loadErrors=%d, want 1/0/0", st.TraceDiskLoads, st.TracesRecorded, st.TraceLoadErrors)
	}
}

// TestQuarantinedTraceReRecorded corrupts the spilled trace at the
// fabric level — the footer CRC no longer matches — and checks the
// fabric quarantines the file (a plain miss, not a trace load error)
// and the service re-records.
func TestQuarantinedTraceReRecorded(t *testing.T) {
	dir := t.TempDir()

	a := newTestService(t, Options{Parallelism: 1, Artifacts: dirStore(t, dir)})
	submitWait(t, a, traceReq(t, "Baseline_6_64", "gzip"))

	path := traceArtifactPath(t, dir, "gzip")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF // footer CRC now fails: fabric-level corruption
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	c := newTestService(t, Options{Parallelism: 1, Artifacts: dirStore(t, dir)})
	req := traceReq(t, "EOLE_4_64", "gzip")
	got := submitWait(t, c, req)
	st := c.Stats()
	if st.TraceLoadErrors != 0 {
		t.Errorf("load errors %d, want 0 (fabric-level corruption is a plain miss)", st.TraceLoadErrors)
	}
	if st.TracesRecorded != 1 || st.TraceReplays != 1 {
		t.Errorf("recorded=%d replays=%d, want 1/1", st.TracesRecorded, st.TraceReplays)
	}
	checkExecuteDriven(t, req, got)
	quarantined, _ := filepath.Glob(filepath.Join(dir, "trace", "quarantine", "*.corrupt"))
	if len(quarantined) == 0 {
		t.Error("corrupt artifact was not quarantined")
	}
}

// TestVersionMismatchedTraceFallsBack writes a trace with a bumped
// format version and checks the service treats it as a miss.
func TestVersionMismatchedTraceFallsBack(t *testing.T) {
	dir := t.TempDir()
	w, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.Record(w, 64_000+uint64(trace.ReplaySlack))
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[4]++ // version uvarint sits after the 4-byte magic
	// Fix the checksum so ONLY the version differs.
	fixCRC(raw)
	// Store it under the CURRENT version's content address, with a
	// valid fabric footer — the scenario where a buggy or hostile
	// writer planted a payload the decoder rejects.
	store, err := artifact.Open(artifact.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Put(artifact.KindTrace, TraceKeyOf(w), raw); err != nil {
		t.Fatal(err)
	}

	svc := newTestService(t, Options{Parallelism: 1, Artifacts: dirStore(t, dir)})
	r := submitWait(t, svc, traceReq(t, "Baseline_6_64", "gzip"))
	if r.Committed < 4_000 {
		t.Fatalf("committed %d", r.Committed)
	}
	st := svc.Stats()
	if st.TraceLoadErrors != 1 || st.TracesRecorded != 1 {
		t.Errorf("loadErrors=%d recorded=%d, want 1/1 (version mismatch is a miss)",
			st.TraceLoadErrors, st.TracesRecorded)
	}
}

// TestRoundUpOps pins the trace length bucketing.
func TestRoundUpOps(t *testing.T) {
	cases := []struct{ need, want uint64 }{
		{1, 1 << 16},
		{1 << 16, 1 << 16},
		{1<<16 + 1, 1 << 17},
		{200_000, 1 << 18},
		{1 << 20, 1 << 20},
		{1<<20 + 1, 5 << 18}, // above 1M: the next 256K
		{5 << 18, 5 << 18},
		{math.MaxUint64 - 3, math.MaxUint64 - 3},
	}
	for _, c := range cases {
		if got := roundUpOps(c.need); got != c.want {
			t.Errorf("roundUpOps(%d) = %d, want %d", c.need, got, c.want)
		}
	}
	// The benchmark's sampled_long op lengthens its windows' skip by
	// k ∈ [0, 4096) so that no two ops share a cached cell; all of them
	// must share one recording.
	cfg := mustConfig(t, "EOLE_4_64")
	for _, k := range []uint64{0, 1, 2048, 4095} {
		spec := eole.SamplingSpec{Windows: 8, Skip: 250_000 + k, Warm: 30_000}
		if got := roundUpOps(eole.ReplayNeed(cfg, 50_000, 160_000, &spec)); got != 11<<18 {
			t.Errorf("sampled_long with k=%d records %d µ-ops, want %d for every k", k, got, 11<<18)
		}
	}
}

// TestGrownTraceReplacesStoredOne: a trace key names the workload, not
// the length, so the longer recording a longer request makes must
// replace the shorter one in the artifact store, not sit behind it —
// else a peer fetching the key gets the short trace and records again.
func TestGrownTraceReplacesStoredOne(t *testing.T) {
	store, err := artifact.Open(artifact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	svc := newTestService(t, Options{Parallelism: 1, Artifacts: store})
	cfg := mustConfig(t, "EOLE_4_64")
	submitWait(t, svc, Request{Config: cfg, Workload: "gzip", Warmup: 1_000, Measure: 4_000})
	submitWait(t, svc, Request{Config: cfg, Workload: "gzip", Warmup: 80_000, Measure: 80_000})
	held := svc.Traces()[0].Uops
	if held != 1<<18 {
		t.Fatalf("the service holds a %d-µ-op trace, want 262144", held)
	}
	w, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	b, err := store.GetLocal(artifact.KindTrace, TraceKeyOf(w))
	if err != nil {
		t.Fatal(err)
	}
	stored, err := trace.Parse(b)
	if err != nil {
		t.Fatal(err)
	}
	if stored.Count != held {
		t.Errorf("the store holds a %d-µ-op trace, the service %d", stored.Count, held)
	}
	for _, ts := range store.Stats() {
		if ts.Tier == "memory" && ts.Kind == string(artifact.KindTrace) && (ts.Entries != 1 || ts.Bytes != int64(len(b))) {
			t.Errorf("memory tier holds %d trace bytes in %d entries, want %d in 1", ts.Bytes, ts.Entries, len(b))
		}
	}
}

// heapAfterGC is the live heap once a collection has swept.
func heapAfterGC() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// readMetric reads one uint64 runtime/metrics sample.
func readMetric(t *testing.T, name string) uint64 {
	t.Helper()
	s := []rtmetrics.Sample{{Name: name}}
	rtmetrics.Read(s)
	if s[0].Value.Kind() != rtmetrics.KindUint64 {
		t.Fatalf("runtime metric %s unsupported", name)
	}
	return s[0].Value.Uint64()
}

// TestRecordingReleasesItsTransients: recording mcf builds a workload
// image — 8 MB of Setup's node cycle and ~14 MB of the pages the
// recording touched — that is garbage once the recording ends.
// If the heap goal is set while they are live, garbage refills it
// before the next collection, and peak RSS follows a heap the process
// no longer holds. The goal after a recording must follow the heap
// that is actually live.
func TestRecordingReleasesItsTransients(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(100))
	svc := newTestService(t, Options{Parallelism: 1})
	w, err := workload.ByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := svc.traces.traceFor(context.Background(), w, 1<<16, svc.traces.maxOps)
	if err != nil {
		t.Fatal(err)
	}
	goal := readMetric(t, "/gc/heap/goal:bytes")
	runtime.GC()
	live := readMetric(t, "/gc/heap/live:bytes")
	if goal > 2*live+16<<20 {
		t.Errorf("heap goal %.1f MB after recording mcf, against %.1f MB live: the recording's image set it",
			float64(goal)/(1<<20), float64(live)/(1<<20))
	}
	runtime.KeepAlive(tr)
}

// TestRecordedTraceHeldOnce: a recorded trace's bytes exist once, as a
// loaded trace's do — its payload is a view of the encoded bytes the
// artifact store's memory tier keeps, not a second copy beside them.
func TestRecordedTraceHeldOnce(t *testing.T) {
	store, err := artifact.Open(artifact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	svc := newTestService(t, Options{Parallelism: 1, Artifacts: store})
	w, err := workload.ByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	const n = 2 << 20
	before := heapAfterGC()
	tr, err := svc.traces.traceFor(context.Background(), w, n, n)
	if err != nil {
		t.Fatal(err)
	}
	grew := heapAfterGC() - before
	b, err := store.GetLocal(artifact.KindTrace, TraceKeyOf(w))
	if err != nil {
		t.Fatal(err)
	}
	if grew > uint64(len(b))*5/4 {
		t.Errorf("the heap grew %.1f MB for a %.1f MB trace: the trace and the store each hold its bytes",
			float64(grew)/(1<<20), float64(len(b))/(1<<20))
	}
	runtime.KeepAlive(tr)
}

// TestZeroOptionsReplaysTraces: the zero Options build the one kind of
// service there is, with an artifact store and trace replay. A 2-config
// sweep over one workload records it once and replays it for both
// cells, and each report equals eole.Simulate's.
func TestZeroOptionsReplaysTraces(t *testing.T) {
	svc := newTestService(t, Options{})
	if svc.Artifacts() == nil {
		t.Fatal("Artifacts() is nil on a service built from zero Options")
	}
	reqs := Cross([]eole.Config{mustConfig(t, "Baseline_6_64"), mustConfig(t, "EOLE_4_64")},
		[]string{"gzip"}, 2_000, 5_000)
	sw, err := svc.SubmitSweep(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := sw.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st := svc.Stats(); st.TracesRecorded != 1 || st.TraceReplays != 2 {
		t.Errorf("recorded=%d replays=%d, want 1/2", st.TracesRecorded, st.TraceReplays)
	}
	for i, req := range reqs {
		checkExecuteDriven(t, req, got[i])
	}
}
