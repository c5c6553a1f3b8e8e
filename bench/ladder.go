package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"eole"
	"eole/internal/artifact"
	"eole/internal/jobs"
	"eole/internal/simsvc"
	"eole/internal/trace"
)

// The ladder pushes the same cells in-process through successively
// taller stacks — eole.Simulate, trace replay, simsvc, jobs — so that
// a rung's cost minus the rung below is what that layer adds. The two
// rungs above (one eoled over HTTP, the cluster) come from the
// one-client passes. It binds only to API the ROADMAP keeps.

// rung is one rung's cost per cell.
type rung struct{ wallMS, cpuMS float64 }

// selfCPU is the CPU time this process has used, GC threads included.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0 // cannot fail for RUSAGE_SELF with a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// timed runs f and returns its wall and CPU time.
func timed(f func() error) (wall, cpu time.Duration, err error) {
	c0, t0 := selfCPU(), time.Now()
	err = f()
	return time.Since(t0), selfCPU() - c0, err
}

// Rungs are measured in turn, rep after rep, so that a drift of the
// machine's speed lands on every rung alike and leaves their
// differences standing; the median over the reps is kept. The full
// cells are long enough that what simsvc and jobs add drowns in their
// run-to-run noise, so those two are read from tiny cells of the same
// configs and workloads, where the added cost is a visible share.
const (
	ladderReps = 3
	tinyWarmup = 1_000
	tinyUops   = 4_000
)

// ladderSize is how much the repeated and the fixed-length parts of
// the ladder do: full for a measurement, a tenth for the smoke run.
type ladderSize struct {
	tinyReps, hotReps    int
	coreUops, interpUops uint64
	sampled              simsvc.Request
}

func ladderSizeFor(smoke bool) ladderSize {
	if !smoke {
		return ladderSize{tinyReps: 15, hotReps: 30, coreUops: 200_000, interpUops: 2_000_000, sampled: sampledOp(0).Reqs[0]}
	}
	sz := ladderSize{tinyReps: 2, hotReps: 3, coreUops: 20_000, interpUops: 200_000, sampled: sampledOp(0).Reqs[0]}
	sz.sampled.Warmup, sz.sampled.Measure = 5_000, 16_000
	sz.sampled.Sampling = &eole.SamplingSpec{Windows: 4, Skip: 20_000, Warm: 3_000}
	return sz
}

//go:embed testdata/sim_cycles.json
var pinnedCyclesJSON []byte

// pinnedCycles maps "config/workload" of the k=0 cold cells to the
// simulated cycle count, which only a change to the model may move.
func pinnedCycles() (map[string]uint64, error) {
	pins := map[string]uint64{}
	if err := json.Unmarshal(pinnedCyclesJSON, &pins); err != nil {
		return nil, fmt.Errorf("testdata/sim_cycles.json: %w", err)
	}
	return pins, nil
}

func cellName(r simsvc.Request) string { return r.Config.Label() + "/" + r.Workload }

// recordTraces records the trace each workload of cells needs.
func recordTraces(cells []simsvc.Request) (traces map[string]*eole.Trace, uops uint64) {
	traces = map[string]*eole.Trace{}
	for _, c := range cells {
		if traces[c.Workload] == nil {
			wl, _ := eole.WorkloadByName(c.Workload) // cells come from the workload table
			traces[c.Workload] = eole.RecordTrace(wl, c.Warmup+c.Measure+eole.TraceSlack)
			uops += traces[c.Workload].Count
		}
	}
	return traces, uops
}

// measureRungs times L0..L3 over cells, reps times in turn, and
// returns each rung's median cost per cell.
func measureRungs(ctx context.Context, cells []simsvc.Request, traces map[string]*eole.Trace, reps int) ([4]rung, error) {
	replay := func() error {
		for _, c := range cells {
			wl, _ := eole.WorkloadByName(c.Workload)
			if _, err := eole.Simulate(c.Config, wl, c.Warmup, c.Measure, eole.WithReplay(traces[c.Workload])); err != nil {
				return err
			}
		}
		return nil
	}
	if err := replay(); err != nil { // decodes each trace once, as a warm eoled has
		return [4]rung{}, err
	}
	rungs := [4]func() (time.Duration, time.Duration, error){
		// L0: eole.Simulate, execute-driven.
		func() (time.Duration, time.Duration, error) {
			return timed(func() error {
				for _, c := range cells {
					if _, err := simulate(c); err != nil {
						return err
					}
				}
				return nil
			})
		},
		// L1: the same cells replaying the recorded traces.
		func() (time.Duration, time.Duration, error) { return timed(replay) },
		// L2: simsvc, one worker, every cell a miss.
		func() (time.Duration, time.Duration, error) {
			svc, err := newService(1, 0, nil)
			if err != nil {
				return 0, 0, err
			}
			defer svc.Close()
			return timed(func() error { return sweep(ctx, svc, cells) })
		},
		// L3: the same sweep as a job, followed to its last event.
		func() (time.Duration, time.Duration, error) {
			svc, err := newService(1, 0, nil)
			if err != nil {
				return 0, 0, err
			}
			defer svc.Close()
			reg := jobs.New(svc, jobs.Options{})
			defer reg.Close()
			return timed(func() error { return runJob(ctx, reg, cells) })
		},
	}
	var wall, cpu [4][]float64
	for rep := 0; rep < reps; rep++ {
		for i, measure := range rungs {
			w, c, err := measure()
			if err != nil {
				return [4]rung{}, err
			}
			wall[i] = append(wall[i], ms(w)/float64(len(cells)))
			cpu[i] = append(cpu[i], ms(c)/float64(len(cells)))
		}
	}
	var out [4]rung
	for i := range out {
		out[i] = rung{median(wall[i]), median(cpu[i])}
	}
	return out, nil
}

// runLadder measures every in-process rung and micro-metric. cold and
// hot are the cells to use (all of them, or a few for the smoke run).
// Mismatches against the pinned cycles are reported through res. It
// returns the per-op cost of the cached hot sweep in-process, in µs,
// which the HTTP pass is compared with.
func (e *env) runLadder(ctx context.Context, cold, hot []simsvc.Request, sz ladderSize, res *result) (hotSweepUS float64, err error) {
	m := res.Metrics

	// The simulated results of the cold cells, and what one cell allocates.
	pins, err := pinnedCycles()
	if err != nil {
		return 0, err
	}
	var cycles, uops uint64
	logIPC := 0.0
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for _, c := range cold {
		r, err := simulate(c)
		if err != nil {
			return 0, err
		}
		cycles += r.Cycles
		logIPC += math.Log(r.IPC)
		uops += c.Warmup + c.Measure
		res.Attempted++
		if want, ok := pins[cellName(c)]; !ok || want != r.Cycles {
			res.fail("core.sim_cycles: %s simulated %d cycles, pinned %d", cellName(c), r.Cycles, want)
		}
	}
	runtime.ReadMemStats(&ms1)
	m.set("core.sim_cycles", float64(cycles))
	m.set("core.sim_ipc_geomean", math.Exp(logIPC/float64(len(cold))))
	m.set("core.alloc_bytes_per_cell", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(len(cold)))
	m.set("core.allocs_per_kuop", float64(ms1.Mallocs-ms0.Mallocs)/(float64(uops)/1000))

	var traces map[string]*eole.Trace
	var recorded uint64
	recWall, _, _ := timed(func() error {
		traces, recorded = recordTraces(cold)
		return nil
	})
	m.set("trace.record_uops_per_s", float64(recorded)/recWall.Seconds())
	full, err := measureRungs(ctx, cold, traces, ladderReps)
	if err != nil {
		return 0, err
	}
	m.set("ladder.L0_execute_ms_per_cell", full[0].cpuMS)
	m.set("ladder.L1_replay_ms_per_cell", full[1].cpuMS)
	m.set("ladder.L2_simsvc_ms_per_cell", full[2].cpuMS)
	m.set("ladder.L3_jobs_ms_per_cell", full[3].cpuMS)
	m.set("trace.replay_speedup", full[0].wallMS/full[1].wallMS)

	tinyCells := make([]simsvc.Request, len(cold))
	for i, c := range cold {
		c.Warmup, c.Measure = tinyWarmup, tinyUops-tinyWarmup
		tinyCells[i] = c
	}
	tinyTraces, _ := recordTraces(tinyCells)
	tiny, err := measureRungs(ctx, tinyCells, tinyTraces, sz.tinyReps)
	if err != nil {
		return 0, err
	}
	m.set("simsvc.miss_added_us_per_cell", 1000*(tiny[2].wallMS-tiny[0].wallMS))
	m.set("jobs.added_us_per_cell", 1000*(tiny[3].wallMS-tiny[2].wallMS))

	if hotSweepUS, err = e.hotLadder(ctx, hot, sz.hotReps, m); err != nil {
		return 0, err
	}
	if err := coreMicro(cold, sz.coreUops, m); err != nil {
		return 0, err
	}
	if err := sampleMicro(sz, m); err != nil {
		return 0, err
	}
	if err := e.storageMicro(ctx, cold[0], traces[cold[0].Workload], m); err != nil {
		return 0, err
	}
	return hotSweepUS, nil
}

// simulate runs one cell in-process, execute-driven: the reference
// every serving path must match.
func simulate(c simsvc.Request) (*eole.Report, error) {
	wl, err := eole.WorkloadByName(c.Workload)
	if err != nil {
		return nil, err
	}
	var opts []eole.SimOption
	if c.Sampling != nil {
		opts = append(opts, eole.WithSampling(*c.Sampling))
	}
	return eole.Simulate(c.Config, wl, c.Warmup, c.Measure, opts...)
}

// newService builds a simsvc over a memory-only artifact store (or the
// one given), with only the options the ROADMAP keeps.
func newService(parallelism, cacheEntries int, store *artifact.Store) (*simsvc.Service, error) {
	if store == nil {
		var err error
		if store, err = artifact.Open(artifact.Options{}); err != nil {
			return nil, err
		}
	}
	return simsvc.New(simsvc.Options{Parallelism: parallelism, CacheEntries: cacheEntries, Artifacts: store})
}

func sweep(ctx context.Context, svc *simsvc.Service, reqs []simsvc.Request) error {
	sw, err := svc.SubmitSweep(ctx, reqs)
	if err != nil {
		return err
	}
	_, err = sw.Wait(ctx)
	return err
}

// runJob creates a job over reqs and follows its event log to the
// terminal event, as a stream consumer does.
func runJob(ctx context.Context, reg *jobs.Registry, reqs []simsvc.Request) error {
	j, err := reg.Create(ctx, reqs)
	if err != nil {
		return err
	}
	seen := 0
	for {
		evs, changed := j.EventsSince(seen)
		for _, ev := range evs {
			seen++
			if ev.Cell != nil && ev.Cell.Error != "" {
				return fmt.Errorf("job cell %d: %s", ev.Cell.Index, ev.Cell.Error)
			}
			if ev.Type == jobs.EventDone {
				if seen != len(reqs)+1 {
					return fmt.Errorf("job emitted %d events for %d cells", seen, len(reqs))
				}
				return nil
			}
		}
		select {
		case <-changed:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// hotLadder fills one service with the hot cells and times the hit
// paths: the typed result map, the artifact memory tier, a whole
// cached sweep, and the same sweep as a job.
func (e *env) hotLadder(ctx context.Context, hot []simsvc.Request, reps int, m measurements) (sweepUS float64, err error) {
	store, err := artifact.Open(artifact.Options{})
	if err != nil {
		return 0, err
	}
	svc, err := newService(runtime.NumCPU(), 0, store)
	if err != nil {
		return 0, err
	}
	defer svc.Close()
	if err := sweep(ctx, svc, hot); err != nil {
		return 0, err
	}
	perOp := func(f func() error) (float64, error) {
		var us []float64
		for i := 0; i < reps; i++ {
			w, _, err := timed(f)
			if err != nil {
				return 0, err
			}
			us = append(us, float64(w)/1e3)
		}
		return median(us), nil
	}
	if sweepUS, err = perOp(func() error { return sweep(ctx, svc, hot) }); err != nil {
		return 0, err
	}
	m.set("simsvc.sweep_hit_us_per_cell", sweepUS/float64(len(hot)))

	one, err := perOp(func() error {
		for i := 0; i < 100; i++ {
			j, err := svc.Submit(ctx, hot[0])
			if err != nil {
				return err
			}
			if _, err := j.Wait(ctx); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	m.set("simsvc.hit_us", one/100)

	// CacheEntries 1: the typed map holds one result, so walking the
	// cells reloads every one from the artifact memory tier.
	small, err := newService(1, 1, store)
	if err != nil {
		return 0, err
	}
	defer small.Close()
	tier, err := perOp(func() error { return sweep(ctx, small, hot) })
	if err != nil {
		return 0, err
	}
	if st := small.Stats(); st.SimsRun != 0 {
		return 0, fmt.Errorf("artifact-tier probe simulated %d cells instead of reloading them", st.SimsRun)
	}
	m.set("simsvc.hit_artifact_mem_us", tier/float64(len(hot)))

	reg := jobs.New(svc, jobs.Options{})
	defer reg.Close()
	jobUS, err := perOp(func() error { return runJob(ctx, reg, hot) })
	if err != nil {
		return 0, err
	}
	m.set("jobs.hit_added_us_per_op", jobUS-sweepUS)
	m.set("jobs.events_per_s", float64(len(hot)+1)/(jobUS/1e6))
	return sweepUS, nil
}

// coreMicro times the detailed core alone: µ-ops per second on the
// four cold workloads, simulator construction, and the report codec.
func coreMicro(cold []simsvc.Request, uops uint64, m measurements) error {
	eoleCfg, _ := eole.NamedConfig("EOLE_4_64")
	noVP, _ := eole.NamedConfig("Baseline_6_64")
	speed := func(cfg eole.Config, wlName string) (float64, error) {
		wl, err := eole.WorkloadByName(wlName)
		if err != nil {
			return 0, err
		}
		var rates []float64
		for i := 0; i < ladderReps; i++ {
			sim, err := eole.NewSimulator(cfg, wl)
			if err != nil {
				return 0, err
			}
			t0 := time.Now()
			sim.Run(uops)
			rates = append(rates, float64(uops)/time.Since(t0).Seconds())
		}
		return median(rates), nil
	}
	for _, wl := range coldWorkloads {
		v, err := speed(eoleCfg, wl)
		if err != nil {
			return err
		}
		m.set("core.uops_per_s."+wl, v)
	}
	v, err := speed(noVP, "gzip")
	if err != nil {
		return err
	}
	m.set("core.uops_per_s.novp", v)

	var build []float64
	for _, c := range cold {
		wl, _ := eole.WorkloadByName(c.Workload)
		t0 := time.Now()
		if _, err := eole.NewSimulator(c.Config, wl); err != nil {
			return err
		}
		build = append(build, float64(time.Since(t0))/1e3)
	}
	m.set("core.build_us", median(build))

	rep, err := simulate(cold[0])
	if err != nil {
		return err
	}
	const reps = 2000
	var enc []byte
	w, _, err := timed(func() error {
		for i := 0; i < reps; i++ {
			if enc, err = json.Marshal(rep); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("eole.report_encode_us", float64(w)/1e3/reps)
	m.set("eole.report_bytes", float64(len(enc)))
	w, _, err = timed(func() error {
		for i := 0; i < reps; i++ {
			var r eole.Report
			if err := json.Unmarshal(enc, &r); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("eole.report_decode_us", float64(w)/1e3/reps)
	return nil
}

// sampleMicro times what sampled_long leans on: the interpreter alone,
// functional warming, and the sampled op itself; and checks the
// sampled estimate against a full detailed run of the same stream.
func sampleMicro(sz ladderSize, m measurements) error {
	o := sz.sampled
	wl, err := eole.WorkloadByName(o.Workload)
	if err != nil {
		return err
	}
	mach := wl.NewMachine()
	t0 := time.Now()
	done := mach.Run(sz.interpUops, nil)
	m.set("prog.interp_uops_per_s", float64(done)/time.Since(t0).Seconds())

	spec := *o.Sampling
	run := func(s eole.SamplingSpec) (*eole.Report, time.Duration, error) {
		t0 := time.Now()
		r, err := eole.Simulate(o.Config, wl, o.Warmup, o.Measure, eole.WithSampling(s))
		return r, time.Since(t0), err
	}
	rep, took, err := run(spec)
	if err != nil {
		return err
	}
	covered := spec.StreamConsumed(o.Warmup, o.Measure)
	m.set("sample.uops_covered_per_s", float64(covered)/took.Seconds())
	// Two runs that differ only in the warming length isolate its rate.
	more := spec
	more.Warm += sz.coreUops
	_, tookMore, err := run(more)
	if err != nil {
		return err
	}
	m.set("sample.warm_uops_per_s", float64(uint64(spec.Windows)*sz.coreUops)/(tookMore-took).Seconds())

	full, err := eole.Simulate(o.Config, wl, o.Warmup, covered-o.Warmup)
	if err != nil {
		return err
	}
	m.set("sample.ipc_rel_err", math.Abs(rep.IPC-full.IPC)/full.IPC)
	m.set("sample.ci_rel_halfwidth", rep.IPCCI/rep.IPC)
	return nil
}

// storageMicro times the trace codec and the artifact tiers, at a
// result-sized payload and at a recorded-trace-sized one.
func (e *env) storageMicro(ctx context.Context, cell simsvc.Request, tr *eole.Trace, m measurements) error {
	m.set("trace.bytes_per_uop", float64(tr.SizeBytes())/float64(tr.Count))
	var buf bytes.Buffer
	w, _, err := timed(func() error { return tr.Write(&buf) })
	if err != nil {
		return err
	}
	enc := buf.Bytes()
	m.set("trace.write_mb_per_s", float64(len(enc))/1e6/w.Seconds())
	var back *eole.Trace
	w, _, err = timed(func() error {
		back, err = trace.Read(bytes.NewReader(enc))
		return err
	})
	if err != nil {
		return err
	}
	m.set("trace.read_mb_per_s", float64(len(enc))/1e6/w.Seconds())
	var h0, h1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&h0)
	if _, err := back.NewSource(); err != nil { // decodes the stream
		return err
	}
	runtime.GC()
	runtime.ReadMemStats(&h1)
	m.set("trace.decoded_bytes_per_uop", float64(h1.HeapAlloc-h0.HeapAlloc)/float64(back.Count))
	runtime.KeepAlive(back)

	rep, err := simulate(cell)
	if err != nil {
		return err
	}
	small, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	const n = 200
	keys := make([]string, n)
	for i := range keys {
		sum := sha256.Sum256(fmt.Appendf(nil, "bench-%d", i))
		keys[i] = hex.EncodeToString(sum[:])
	}
	each := func(keys []string, f func(key string) error) (float64, error) {
		var us []float64
		for _, k := range keys {
			t0 := time.Now()
			if err := f(k); err != nil {
				return 0, err
			}
			us = append(us, float64(time.Since(t0))/1e3)
		}
		return median(us), nil
	}
	dir := filepath.Join(e.scratch, "artifacts")
	disk, err := artifact.Open(artifact.Options{Dir: dir})
	if err != nil {
		return err
	}
	v, err := each(keys, func(k string) error { return disk.Put(artifact.KindResult, k, small) })
	if err != nil {
		return err
	}
	m.set("artifact.disk_put_us", v)
	get := func(s *artifact.Store, kind artifact.Kind) func(string) error {
		return func(k string) error { _, err := s.Get(ctx, kind, k); return err }
	}
	if v, err = each(keys, get(disk, artifact.KindResult)); err != nil {
		return err
	}
	m.set("artifact.mem_get_us", v)
	// A second store on the same directory with no memory tier reads
	// every key from disk.
	cold, err := artifact.Open(artifact.Options{Dir: dir, MemBytes: -1})
	if err != nil {
		return err
	}
	if v, err = each(keys, get(cold, artifact.KindResult)); err != nil {
		return err
	}
	m.set("artifact.disk_get_us", v)
	traceKeys := keys[:8]
	for _, k := range traceKeys {
		if err := disk.Put(artifact.KindTrace, k, enc); err != nil {
			return err
		}
	}
	if v, err = each(traceKeys, get(cold, artifact.KindTrace)); err != nil {
		return err
	}
	m.set("artifact.disk_get_mb_per_s.trace", float64(len(enc))/v)

	// The peer tier: a store with neither memory nor disk behind an
	// in-harness server that answers like eoled's /v1/artifacts.
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		parts := strings.Split(strings.TrimPrefix(r.URL.Path, "/v1/artifacts/"), "/")
		if len(parts) != 2 {
			http.NotFound(rw, r)
			return
		}
		b, err := disk.Get(r.Context(), artifact.Kind(parts[0]), parts[1])
		if err != nil {
			http.NotFound(rw, r)
			return
		}
		rw.Write(b)
	}))
	defer srv.Close()
	remote, err := artifact.Open(artifact.Options{MemBytes: -1, Peer: artifact.NewHTTPPeer(srv.URL)})
	if err != nil {
		return err
	}
	if v, err = each(traceKeys, get(remote, artifact.KindTrace)); err != nil {
		return err
	}
	m.set("artifact.peer_get_mb_per_s.trace", float64(len(enc))/v)
	if v, err = each(keys, get(remote, artifact.KindResult)); err != nil {
		return err
	}
	m.set("artifact.peer_get_us", v)
	return nil
}
