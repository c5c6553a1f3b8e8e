// Package simsvc is the shared batch simulation service: a job queue
// with a bounded worker pool in front of a content-addressed result
// cache. Every consumer of the simulator — the experiments harness,
// the eoled HTTP server, ad-hoc tools — submits (config, workload,
// warmup, measure) requests and gets back *eole.Report values.
//
// Because the simulator is deterministic, results are content
// addressed: a request is keyed (see KeyOf) and repeated submissions
// of the same request are answered from cache, including across
// processes — and, with a peer configured, across a cluster — when an
// artifact store (internal/artifact) backs the service. Identical
// requests that are in flight at the same time are coalesced into a
// single simulation (single-flight), so a sweep that includes the
// same baseline column ten times still simulates it once.
//
// Every service is trace-driven: the committed µ-op stream of each
// workload is recorded once (on the first cache miss that needs it,
// single-flight per workload) and replayed for every configuration, so
// a sweep interprets each workload one time instead of once per
// config. Replay is byte-identical to execute-driven simulation. A run
// is execute-driven only when its input rules replay out: it needs
// more of the stream than its trace ceiling (Options.TraceMaxOps), its
// length overflows eole.ReplayNeed, or its trace fails to attach.
package simsvc

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"eole"
	"eole/internal/artifact"
	"eole/internal/obs"
)

// ErrClosed is returned by Submit, Probe and Wait after Close has begun.
var ErrClosed = errors.New("simsvc: service closed")

// Status is a job's lifecycle state.
type Status int32

const (
	StatusQueued Status = iota
	StatusRunning
	StatusDone
	StatusFailed
	StatusCanceled
)

func (s Status) String() string {
	switch s {
	case StatusQueued:
		return "queued"
	case StatusRunning:
		return "running"
	case StatusDone:
		return "done"
	case StatusFailed:
		return "failed"
	case StatusCanceled:
		return "canceled"
	}
	return fmt.Sprintf("Status(%d)", int32(s))
}

// Options configures a Service. The zero value is usable: GOMAXPROCS
// workers, a memory-only artifact store. The queue is unbounded —
// Submit never blocks — so a serving layer that must bound it does so
// at admission (see QueueLen).
type Options struct {
	// Parallelism is the worker count (0 = GOMAXPROCS).
	Parallelism int
	// CacheEntries bounds the in-memory result cache (0 = 16384,
	// negative = unbounded). The oldest entry is evicted when full;
	// evicted results reload from the artifact store while it holds
	// them.
	CacheEntries int

	// Artifacts is the artifact store backing the result and trace
	// spills (nil = a memory-only store of New's own). Serving layers
	// (eoled) inject one they share with their HTTP /v1/artifacts
	// endpoint; a store with a directory persists results under
	// <dir>/result and traces under <dir>/trace for later processes.
	Artifacts *artifact.Store

	// TraceMaxOps bounds, in µ-ops (0 = 1M), how much of a workload's
	// trace replays may hold decoded. A trace keeps, for the process
	// lifetime, the 4096-µ-op chunks its full-run replays have read
	// (4 bytes per µ-op plus 8 per load or store, at most 12 per µ-op;
	// /v1/traces reports them as decoded_uops and decoded_bytes) on top
	// of its encoded payload (a load-value log,
	// 0.02–2.7 bytes/µ-op), and a prediction track of a byte per µ-op
	// for each predictor its full runs use. A full run needing more
	// than TraceMaxOps µ-ops runs execute-driven, and one served by a longer trace replays
	// only its first TraceMaxOps µ-ops (trace.Head), so its chunks and
	// tracks are bounded by TraceMaxOps whatever the trace. A sampled
	// run decodes privately and leaves nothing decoded, so it replays
	// traces of up to 16 × TraceMaxOps (see traceStore.ceilingFor) and
	// runs execute-driven beyond. The worst case per distinct workload
	// is therefore TraceMaxOps × 12B decoded (12.6MB at the default) plus
	// a payload of up to 16 × TraceMaxOps × 2.7B (45MB, only if a
	// sampled run asked for a trace that long of the densest workload;
	// 2.8MB for full runs alone) plus TraceMaxOps bytes of track per
	// predictor key — 1.1GB if all 19 workloads are driven to every
	// limit with the 11 named configs' two keys. The default server
	// run lengths read under 512K µ-ops: at most 6.3MB decoded per
	// workload, 2.9MB at the workloads' average 5.5B per µ-op.
	TraceMaxOps uint64

	// Logger receives job lifecycle events (nil = discard). Cache
	// hits, coalesces and enqueues log at Debug; simulation start,
	// completion, failure and abandonment at Info. Events carry the
	// submit context's request ID (obs.RequestID) so one sweep is
	// traceable through the service's logs.
	Logger *slog.Logger

	// Tracer, when set, records per-phase spans for every simulation:
	// cache.probe (fabric lookup), queue.wait (enqueue → worker
	// pickup), trace.resolve (µ-op trace load/record), and sim.warm +
	// sim.detailed (or sim.sampled), parented under the submitting
	// request's span. Spans are per-phase only — the simulation hot
	// loop is never instrumented — and a nil tracer costs one pointer
	// test per phase.
	Tracer *obs.Tracer
}

// Job is the handle for one submitted request. Wait blocks for the
// result; Status, Report and Err observe it without blocking.
type Job struct {
	req Request
	key Key
	ctx context.Context // submit-time context: when it dies the job leaves its task
	// stop unregisters the leave hook on ctx (nil for cache hits and
	// contexts that cannot die). Written under Service.mu before the
	// job is attached to a task, so every complete happens after it.
	stop func() bool

	status atomic.Int32
	done   chan struct{}
	once   sync.Once
	res    result
	err    error
	cached bool
}

// Request returns the submitted request.
func (j *Job) Request() Request { return j.req }

// Key returns the request's content address.
func (j *Job) Key() Key { return j.key }

// Status returns the job's current lifecycle state.
func (j *Job) Status() Status { return Status(j.status.Load()) }

// Done is closed when the job has a result (or error).
func (j *Job) Done() <-chan struct{} { return j.done }

// Cached reports whether the result was served from cache rather than
// a fresh simulation. Valid after Done.
func (j *Job) Cached() bool {
	select {
	case <-j.done:
		return j.cached
	default:
		return false
	}
}

// Result returns the report and error without blocking; before Done
// it returns (nil, nil).
func (j *Job) Result() (*eole.Report, error) {
	select {
	case <-j.done:
		return j.res.report, j.err
	default:
		return nil, nil
	}
}

// Encoded returns the report's canonical JSON, the bytes every reply
// carrying this result is stitched from. Valid after Done; zero for a
// failed job.
func (j *Job) Encoded() Encoded {
	select {
	case <-j.done:
		return j.res.enc
	default:
		return Encoded{}
	}
}

// Wait blocks until the job completes or ctx is canceled. A job that
// is already done always returns its result, even if ctx is also
// canceled — the select would otherwise pick nondeterministically.
func (j *Job) Wait(ctx context.Context) (*eole.Report, error) {
	select {
	case <-j.done:
		return j.res.report, j.err
	default:
	}
	select {
	case <-j.done:
		return j.res.report, j.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

func (j *Job) complete(r result, err error, cached bool) {
	j.once.Do(func() {
		j.res, j.err, j.cached = r, err, cached
		switch {
		case err == nil:
			j.status.Store(int32(StatusDone))
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, ErrClosed):
			j.status.Store(int32(StatusCanceled))
		default:
			j.status.Store(int32(StatusFailed))
		}
		if j.stop != nil {
			j.stop()
		}
		close(j.done)
	})
}

// task is one unique simulation, registered in Service.inflight from
// the Submit that created it until it is resolved or dropped. jobs
// holds every Job waiting on it; cancel is nil until a worker takes the
// task and aborts the run from then on (both guarded by Service.mu).
// qspan times the queue wait, from the artifact probe's miss to worker
// pickup. name is key.String(), the result's artifact name.
type task struct {
	key    Key
	name   string
	req    Request
	jobs   []*Job
	cancel context.CancelFunc
	qspan  *obs.Span
}

// Service runs simulations through a bounded worker pool with
// content-addressed caching. Create with New, release with Close.
type Service struct {
	opts   Options
	cache  *resultCache
	traces *traceStore
	m      metrics
	log    *slog.Logger
	wg     sync.WaitGroup // the workers

	mu       sync.Mutex
	work     *sync.Cond // on mu: the queue grew, or closed was set
	queue    []*task    // FIFO of tasks no worker has taken yet
	queued   atomic.Int64
	inflight map[Key]*task
	closed   bool
}

// New starts a service with opts.Parallelism workers. The caller must
// Close it to release the workers.
func New(opts Options) (*Service, error) {
	if opts.Parallelism <= 0 {
		opts.Parallelism = runtime.GOMAXPROCS(0)
	}
	if opts.CacheEntries == 0 {
		opts.CacheEntries = 16384
	}
	if opts.TraceMaxOps == 0 {
		opts.TraceMaxOps = 1 << 20
	}
	if opts.Logger == nil {
		opts.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if opts.Artifacts == nil {
		// Memory-only: it starts no goroutine and needs no Close.
		var err error
		if opts.Artifacts, err = artifact.Open(artifact.Options{Logger: opts.Logger, Tracer: opts.Tracer}); err != nil {
			return nil, fmt.Errorf("simsvc: artifact store: %w", err)
		}
	}
	s := &Service{
		opts:     opts,
		cache:    newResultCache(opts.Artifacts, opts.CacheEntries),
		log:      opts.Logger,
		inflight: make(map[Key]*task),
	}
	s.work = sync.NewCond(&s.mu)
	s.traces = newTraceStore(opts.Artifacts, opts.TraceMaxOps, &s.m)
	for i := 0; i < opts.Parallelism; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Submit registers one request and returns its job handle without
// blocking on the queue. A request whose result is already cached
// completes immediately; a request identical to one already queued or
// running joins it instead of simulating twice. When ctx dies the job
// leaves its simulation and completes with ctx's error at once; the
// last job to leave takes the simulation with it — out of the queue
// if no worker has started it, aborted at the core's next cancellation
// checkpoint if one has (a running simulation with at least one live
// waiter is never preempted).
func (s *Service) Submit(ctx context.Context, req Request) (*Job, error) {
	return s.SubmitKeyed(ctx, req, KeyOf(req))
}

// SubmitKeyed is Submit for a request whose content address the caller
// has already computed (Keys), so a path that needs the key for more
// than submission hashes each cell once. key must be KeyOf(req).
func (s *Service) SubmitKeyed(ctx context.Context, req Request, key Key) (*Job, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	j := &Job{req: req, key: key, ctx: ctx, done: make(chan struct{})}
	s.m.submitted.Add(1)

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if r, ok := s.cache.getMem(key); ok {
		s.mu.Unlock()
		s.memHit(ctx, key)
		j.complete(r, nil, true)
		return j, nil
	}
	if t, ok := s.inflight[key]; ok {
		s.attach(j, t)
		s.mu.Unlock()
		s.m.coalesced.Add(1)
		s.log.Debug("job_coalesced", "key", key, "request_id", obs.RequestID(ctx))
		return j, nil
	}
	t := &task{key: key, req: req}
	s.inflight[key] = t
	s.attach(j, t)
	s.mu.Unlock()
	// The one digest of a miss: the fabric probe, the spill and the
	// log lines all name the result by it. A worker reads it only after
	// the task is queued below, under s.mu.
	t.name = key.String()

	// Probe the artifact fabric outside the lock — disk and peer I/O
	// must not stall other Submits or job completions. The task is
	// already registered, so concurrent identical Submits coalesce onto
	// it and are resolved by the detach below.
	pctx, psp := s.opts.Tracer.StartSpan(ctx, "cache.probe")
	if r, ok := s.cache.getStore(pctx, key, t.name, req.Relayed); ok {
		psp.SetAttr("hit", "true")
		psp.End()
		s.m.cacheHits.Add(1)
		s.m.diskHits.Add(1)
		for _, jb := range s.detach(t) {
			s.m.completed.Add(1)
			jb.complete(r, nil, true)
		}
		s.log.Debug("job_disk_hit", "key", t.name, "request_id", obs.RequestID(ctx))
		return j, nil
	}
	psp.SetAttr("hit", "false")
	psp.End()
	s.m.cacheMisses.Add(1)

	// The queue-wait span belongs to the first submitter's request; it
	// ends when a worker picks the task up (see worker). A task that is
	// dropped first simply drops the span — only ended spans publish.
	_, qspan := s.opts.Tracer.StartSpan(ctx, "queue.wait")
	qspan.SetAttr("config", req.label())
	qspan.SetAttr("workload", req.Workload)

	s.mu.Lock()
	// Unregistered during the probe: every waiter left, or Close failed
	// it. Either way its jobs are resolved and nothing is left to queue.
	if s.inflight[key] != t {
		s.mu.Unlock()
		return j, nil
	}
	t.qspan = qspan
	s.setQueue(append(s.queue, t))
	s.work.Signal()
	s.mu.Unlock()
	s.log.Debug("job_queued", "key", t.name, "request_id", obs.RequestID(ctx),
		"config", req.label(), "workload", req.Workload)
	return j, nil
}

// Probe answers every key the in-memory result tier holds, taking its
// lock once for the whole batch: out[i] is set for each hit and left
// zero for a miss, and hits counts them; out must be as long as keys.
// A hit is accounted exactly as SubmitKeyed accounts one, so a caller
// that probes first and submits only the misses leaves every counter as
// submitting each cell would. SubmitKeyed still checks the tier itself,
// so a cell that completes between the probe and its submission is a
// hit there.
func (s *Service) Probe(ctx context.Context, keys []Key, out []Encoded) (hits int, err error) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return 0, ErrClosed
	}
	hits = s.cache.getMems(keys, out)
	for i, e := range out[:len(keys)] {
		if e.b != nil {
			s.m.submitted.Add(1)
			s.memHit(ctx, keys[i])
		}
	}
	return hits, nil
}

// memHit accounts one submitted request answered from the in-memory
// tier.
func (s *Service) memHit(ctx context.Context, key Key) {
	s.m.cacheHits.Add(1)
	s.m.completed.Add(1)
	// Checked first: boxing the key is most of what a hit would
	// otherwise allocate.
	if s.log.Enabled(ctx, slog.LevelDebug) {
		s.log.Debug("job_cache_hit", "key", key, "request_id", obs.RequestID(ctx))
	}
}

// attach adds j to t's waiters and arranges for it to leave when its
// submit context dies. Caller holds s.mu: AfterFunc never runs its
// function on the calling goroutine, even for a context that is
// already dead, so leave cannot re-enter the lock from here.
func (s *Service) attach(j *Job, t *task) {
	if j.ctx.Done() != nil {
		j.stop = context.AfterFunc(j.ctx, func() { s.leave(j, t) })
	}
	t.jobs = append(t.jobs, j)
	if t.cancel != nil {
		j.status.Store(int32(StatusRunning))
	}
}

// leave takes j, whose submit context died, off t and completes it
// with the context's error. The last job out takes the task with it,
// and in the same critical section that empties t.jobs the task leaves
// the inflight set — so no Submit can join a task that is being
// dropped — and is pulled from the queue or, if a worker has it, has
// its run canceled.
func (s *Service) leave(j *Job, t *task) {
	s.mu.Lock()
	i := slices.Index(t.jobs, j)
	if i < 0 {
		// Already detached: whoever resolved the task completes j.
		s.mu.Unlock()
		return
	}
	t.jobs = slices.Delete(t.jobs, i, i+1)
	if len(t.jobs) == 0 {
		s.unregister(t)
		if t.cancel != nil {
			// Counted here, where the run is canceled, so the counter
			// never trails the job's Done.
			s.m.abandonedRuns.Add(1)
			t.cancel()
		} else if qi := slices.Index(s.queue, t); qi >= 0 {
			s.setQueue(slices.Delete(s.queue, qi, qi+1))
		}
	}
	s.mu.Unlock()
	s.m.canceled.Add(1)
	j.complete(result{}, j.ctx.Err(), false)
}

// Sweep is the handle for a batch of jobs, in submission order.
type Sweep struct {
	Jobs []*Job
}

// SubmitSweep enqueues a batch of requests. Jobs[i] corresponds to
// reqs[i]; duplicate requests within the sweep share one simulation.
func (s *Service) SubmitSweep(ctx context.Context, reqs []Request) (*Sweep, error) {
	keys := Keys(reqs)
	sw := &Sweep{Jobs: make([]*Job, 0, len(reqs))}
	for i, req := range reqs {
		j, err := s.SubmitKeyed(ctx, req, keys[i])
		if err != nil {
			return sw, err
		}
		sw.Jobs = append(sw.Jobs, j)
	}
	return sw, nil
}

// Wait blocks until every job in the sweep completes or ctx is
// canceled. Reports are aligned with the submitted requests; a job
// that failed leaves a nil slot and contributes to the joined error.
func (sw *Sweep) Wait(ctx context.Context) ([]*eole.Report, error) {
	reports := make([]*eole.Report, len(sw.Jobs))
	var errs []error
	for i, j := range sw.Jobs {
		r, err := j.Wait(ctx)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s on %s: %w", j.req.label(), j.req.Workload, err))
			continue
		}
		reports[i] = r
	}
	return reports, errors.Join(errs...)
}

// Cross builds the (config × workload) request grid every figure-style
// sweep uses, in row-major (config-major) order. For sweeps over
// design-space axes, build the config list with Grid.Configs instead
// of enumerating configs by hand.
func Cross(cfgs []eole.Config, workloads []string, warmup, measure uint64) []Request {
	reqs := make([]Request, 0, len(cfgs)*len(workloads))
	for _, c := range cfgs {
		for _, w := range workloads {
			reqs = append(reqs, Request{Config: c, Workload: w, Warmup: warmup, Measure: measure})
		}
	}
	return reqs
}

// ApplySampling stamps one sampling spec onto every request of a
// sweep (nil leaves the sweep full-run) and returns the slice for
// chaining — the single place sweep builders attach a schedule, so
// the eoled and experiments entry points cannot drift apart.
func ApplySampling(reqs []Request, spec *eole.SamplingSpec) []Request {
	if spec != nil {
		for i := range reqs {
			reqs[i].Sampling = spec
		}
	}
	return reqs
}

// Stats snapshots the service counters.
func (s *Service) Stats() Stats { return s.m.snapshot(s.cache.len()) }

// setQueue replaces the queue and publishes its length for QueueLen.
// Caller holds s.mu.
func (s *Service) setQueue(q []*task) {
	s.queue = q
	s.queued.Store(int64(len(q)))
}

// QueueLen reports how many unique simulations are queued and not yet
// picked up by a worker (running ones excluded); a simulation whose
// waiters have all left is no longer counted. Serving layers use it
// for backpressure: eoled answers 429 instead of queueing once the
// depth crosses its bound. Lock-free, so a request fast path can ask.
func (s *Service) QueueLen() int { return int(s.queued.Load()) }

// InFlight reports how many unique simulations are registered with the
// service — queued or running — right now. Shutdown logging uses it to
// report what a graceful stop is waiting on.
func (s *Service) InFlight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.inflight)
}

// FreeToServeKey reports whether Submit would answer the request with
// this content address without consuming a queue slot: its result is
// already in the in-memory cache, or an identical simulation is
// queued/running and the job would coalesce onto it. Backpressure
// layers use it so warm and duplicate traffic keeps flowing through a
// backlog; the disk spill is deliberately not probed (this must stay
// cheap enough for a request fast path).
func (s *Service) FreeToServeKey(key Key) bool {
	if _, ok := s.cache.getMem(key); ok {
		return true
	}
	s.mu.Lock()
	_, ok := s.inflight[key]
	s.mu.Unlock()
	return ok
}

// Parallelism returns the resolved worker count.
func (s *Service) Parallelism() int { return s.opts.Parallelism }

// Artifacts returns the artifact store backing the service's result
// and trace spills; never nil. Serving layers use it to expose the
// store over HTTP and in metrics.
func (s *Service) Artifacts() *artifact.Store { return s.opts.Artifacts }

// Close gracefully shuts the service down: no new submissions are
// accepted, jobs of simulations no worker has started complete with
// ErrClosed, running simulations finish, and the workers exit. Close is
// idempotent.
func (s *Service) Close() {
	s.mu.Lock()
	var dropped []*Job
	if !s.closed {
		s.closed = true
		// Not just the queue: a task still probing the artifact fabric
		// in its Submit is in neither the queue nor a worker's hands.
		for _, t := range s.inflight {
			if t.cancel == nil {
				dropped = append(dropped, s.detachLocked(t)...)
			}
		}
		s.setQueue(nil)
		s.work.Broadcast()
	}
	s.mu.Unlock()
	for _, j := range dropped {
		s.m.canceled.Add(1)
		j.complete(result{}, ErrClosed, false)
	}
	s.wg.Wait()
}

// detach unregisters t and returns its final job list for the caller
// to complete; later identical submissions hit the cache or start
// fresh.
func (s *Service) detach(t *task) []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.detachLocked(t)
}

func (s *Service) detachLocked(t *task) []*Job {
	s.unregister(t)
	jobs := t.jobs
	t.jobs = nil
	return jobs
}

// unregister makes t unjoinable. Caller holds s.mu. Only if the key
// still maps to t: once the last waiter has left a running task, a
// fresh one may be registered under the same key while the old run is
// still unwinding.
func (s *Service) unregister(t *task) {
	if s.inflight[t.key] == t {
		delete(s.inflight, t.key)
	}
}

// worker takes tasks off the queue in FIFO order until Close.
func (s *Service) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed {
			s.work.Wait()
		}
		if s.closed {
			s.mu.Unlock()
			return
		}
		t := s.queue[0]
		s.queue[0] = nil
		s.setQueue(s.queue[1:])
		// The run context is detached from the waiters — they come and
		// go, and the last to leave cancels it — but carries the first
		// waiter's span, so the simulation-phase spans land in the trace
		// of the request that triggered the run. A queued task always
		// has a waiter: the last one out would have unqueued it.
		base := context.Background()
		if sp := obs.SpanFrom(t.jobs[0].ctx); sp != nil {
			base = obs.ContextWithSpan(base, sp)
		}
		ctx, cancel := context.WithCancel(base)
		t.cancel = cancel // late coalescers are marked running by attach
		// Request IDs of the waiters, for the lifecycle log lines: one
		// simulation can serve many coalesced requests.
		ids := make([]string, 0, len(t.jobs))
		for _, j := range t.jobs {
			j.status.Store(int32(StatusRunning))
			if id := obs.RequestID(j.ctx); id != "" {
				ids = append(ids, id)
			}
		}
		waiters := len(t.jobs)
		s.mu.Unlock()
		t.qspan.End()
		s.log.Info("sim_start", "key", t.name, "config", t.req.label(),
			"workload", t.req.Workload, "waiters", waiters, "request_ids", ids)
		s.run(ctx, t, ids)
		cancel()
	}
}

// run executes one unique simulation and resolves every job still
// waiting on it. ctx is canceled by the last waiter to leave.
func (s *Service) run(ctx context.Context, t *task, ids []string) {
	start := time.Now()
	rep, err := s.simulate(ctx, t.req)
	elapsed := time.Since(start)
	// The one encode of this cell: every reply and the artifact spill
	// are built from these bytes. A report that cannot be encoded can
	// be neither served nor stored, so it fails like the simulation.
	var res result
	if err == nil {
		res.report = rep
		if res.enc, err = encodeReport(rep); err != nil {
			err = fmt.Errorf("%s on %s: encode report: %w", t.req.label(), t.req.Workload, err)
		}
	}
	if err != nil {
		if ctx.Err() != nil {
			// Abandoned: leave already resolved every job and
			// unregistered the task, so there is nothing to do but say so.
			s.log.Info("sim_abandoned", "key", t.name, "workload", t.req.Workload,
				"duration_ms", elapsed.Milliseconds(), "request_ids", ids)
			return
		}
		s.log.Info("sim_failed", "key", t.name, "workload", t.req.Workload,
			"error", err.Error(), "request_ids", ids)
		for _, j := range s.detach(t) {
			s.m.failed.Add(1)
			j.complete(result{}, err, false)
		}
		return
	}
	s.log.Info("sim_done", "key", t.name, "config", t.req.label(),
		"workload", t.req.Workload, "duration_ms", elapsed.Milliseconds(),
		"ipc", rep.IPC, "request_ids", ids)
	// Publish to the memory cache before detaching: a concurrent
	// Submit holds s.mu while it checks the cache and then the
	// inflight set, so it observes at least one of the two. The fabric
	// spill happens after waiters are released — file and peer I/O
	// must not delay them. The spill gets its own bounded context: the
	// waiters' contexts may already be dead, and a wedged peer must
	// not pin the worker.
	s.cache.putMem(t.key, res)
	for i, j := range s.detach(t) {
		s.m.completed.Add(1)
		// The first attached job triggered the simulation; the rest
		// were coalesced onto it and count as cache-equivalent hits.
		j.complete(res, nil, i > 0)
	}
	spillCtx, cancelSpill := context.WithTimeout(context.Background(), 30*time.Second)
	s.cache.spill(spillCtx, t.name, res.enc, t.req.Relayed)
	cancelSpill()
}

func (s *Service) simulate(ctx context.Context, req Request) (r *eole.Report, err error) {
	// Validate rejects every configuration known to break the core,
	// but configs arrive from untrusted sources (inline HTTP objects):
	// a residual pathological case must fail its own job, not take the
	// whole service down with a worker panic.
	defer func() {
		if p := recover(); p != nil {
			r, err = nil, fmt.Errorf("%s on %s: simulator panic: %v", req.label(), req.Workload, p)
		}
	}()
	w, err := eole.WorkloadByName(req.Workload)
	if err != nil {
		return nil, err
	}
	// Resolve the trace before starting the simulation clock: recording
	// (or waiting on another job's single-flight recording) is
	// accounted separately in TraceRecordTime, not in SimWallTime.
	rctx, rsp := s.opts.Tracer.StartSpan(ctx, "trace.resolve")
	t := s.traceSource(rctx, w, req)
	if t != nil {
		rsp.SetAttr("trace", "ready")
	} else {
		rsp.SetAttr("trace", "none")
	}
	rsp.End()
	// Sampled requests run the sampler instead of a full detailed
	// region (eole.WithSampling); the option composes with replay.
	var extra []eole.SimOption
	if req.Sampling != nil {
		extra = append(extra, eole.WithSampling(*req.Sampling))
	}
	start := time.Now()
	if t != nil {
		// Trace-driven: replay the recorded stream. Byte-identical to
		// execute-driven by construction; a trace that fails to attach
		// (e.g. recorded against an older program build) falls back —
		// but a canceled run is cancellation, not a trace problem.
		opts := append([]eole.SimOption{eole.WithReplay(t)}, extra...)
		r, err = s.runPhases(ctx, req, w, opts)
		switch {
		case err == nil:
			s.m.traceReplays.Add(1)
		case ctx.Err() != nil:
			return nil, ctx.Err()
		default:
			s.m.traceFallbacks.Add(1)
			r = nil
		}
	}
	if r == nil {
		r, err = s.runPhases(ctx, req, w, extra)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, fmt.Errorf("%s on %s: %w", req.label(), req.Workload, err)
		}
	}
	s.m.simsRun.Add(1)
	s.m.simNanos.Add(int64(time.Since(start)))
	if req.Sampling != nil {
		s.m.sampledRuns.Add(1)
		// A sampled run advances its whole window schedule, not just
		// warmup+measure; account the stream actually drawn (the
		// exact jitter sequence is deterministic) so UopsPerSec stays
		// meaningful. Skip the saturated error sentinel — that
		// request failed above anyway.
		if used := req.Sampling.StreamConsumed(req.Warmup, req.Measure); used < 1<<62 {
			s.m.simOps.Add(used)
		}
	} else {
		s.m.simOps.Add(req.Warmup + req.Measure)
	}
	return r, nil
}

// runPhases is eole.SimulateContext unrolled so each phase gets a
// span: sim.sampled for sampled requests, otherwise sim.warm (the
// functional warming run) then sim.detailed (the measured region).
// Semantics — error propagation, sampled dispatch — are identical to
// SimulateContext; with a nil tracer the unrolling is free.
func (s *Service) runPhases(ctx context.Context, req Request, w eole.Workload, opts []eole.SimOption) (*eole.Report, error) {
	sim, err := eole.NewSimulator(req.Config, w, opts...)
	if err != nil {
		return nil, err
	}
	if req.Sampling != nil {
		_, sp := s.opts.Tracer.StartSpan(ctx, "sim.sampled")
		r, err := sim.SampleContext(ctx, req.Warmup, req.Measure)
		sp.SetError(err)
		sp.End()
		return r, err
	}
	_, wsp := s.opts.Tracer.StartSpan(ctx, "sim.warm")
	if _, err := sim.RunContext(ctx, req.Warmup); err != nil {
		wsp.SetError(err)
		wsp.End()
		return nil, err
	}
	wsp.End()
	_, dsp := s.opts.Tracer.StartSpan(ctx, "sim.detailed")
	r, err := sim.MeasureContext(ctx, req.Measure)
	dsp.SetError(err)
	dsp.End()
	return r, err
}
