// Package simsvc is the shared batch simulation service: a job queue
// with a bounded worker pool in front of a content-addressed result
// cache. Every consumer of the simulator — the experiments harness,
// the eoled HTTP server, ad-hoc tools — submits (config, workload,
// warmup, measure) requests and gets back *eole.Report values.
//
// Because the simulator is deterministic, results are content
// addressed: a request is hashed (see KeyOf) and repeated submissions
// of the same request are answered from cache, including across
// processes — and, with a peer configured, across a cluster — when an
// artifact store (internal/artifact) backs the service. Identical
// requests that are in flight at the same time are coalesced into a
// single simulation (single-flight), so a sweep that includes the
// same baseline column ten times still simulates it once.
package simsvc

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"eole"
	"eole/internal/artifact"
	"eole/internal/obs"
)

// ErrClosed is returned by Submit and Wait after Close has begun.
var ErrClosed = errors.New("simsvc: service closed")

// DefaultQueueDepth is the queue bound applied when
// Options.QueueDepth is zero. Exported so serving layers sizing their
// backpressure thresholds against the queue (eoled's -max-queue) stay
// in sync with it.
const DefaultQueueDepth = 4096

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
// workers, a 4096-deep queue, memory-only cache.
type Options struct {
	// Parallelism is the worker count (0 = GOMAXPROCS).
	Parallelism int
	// QueueDepth bounds the number of queued unique simulations
	// (0 = DefaultQueueDepth). Submit blocks when the queue is full.
	QueueDepth int
	// CacheEntries bounds the in-memory result cache (0 = 16384,
	// negative = unbounded). The oldest entry is evicted when full;
	// evicted results reload from the artifact store if one backs the
	// service.
	CacheEntries int

	// ArtifactDir, when set, roots a persistent artifact fabric
	// (internal/artifact) holding both result and trace spills, reloaded
	// by later processes: results under <dir>/result, traces under
	// <dir>/trace (invalid or version-mismatched trace artifacts fall
	// back to execute-driven recording). Implies Traces. Ignored when
	// Artifacts is injected.
	ArtifactDir string
	// Artifacts, when non-nil, is the artifact store backing the
	// result and trace spills — injected by serving layers (eoled)
	// that share one store between the service and their HTTP
	// /v1/artifacts endpoint. Overrides ArtifactDir.
	Artifacts *artifact.Store

	// Traces enables trace-driven simulation: the committed µ-op
	// stream of each workload is recorded once (on the first cache
	// miss that needs it) and replayed for every configuration, so a
	// sweep interprets each workload one time instead of once per
	// config. Replay is byte-identical to execute-driven simulation,
	// so cached results are unaffected. Recording is single-flight
	// per workload across concurrent jobs.
	Traces bool
	// TraceMaxOps bounds the recorded trace length in µ-ops
	// (0 = 1M). Requests needing longer traces run execute-driven.
	// The bound is also the store's memory lever: every stored trace
	// pins its decoded stream (~90 bytes/µ-op) for the process
	// lifetime, so the worst case is TraceMaxOps × ~90B × the number
	// of distinct workloads (all 19 at the 1M default ≈ 1.7GB; the
	// default server run lengths stay under 512K µ-ops ≈ 45MB per
	// workload).
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
	ctx context.Context // submit-time context: cancels a not-yet-started job

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
		close(j.done)
	})
}

// task is one unique queued simulation; jobs holds every Job coalesced
// onto it and running marks that a worker has started it (both guarded
// by Service.mu). qspan times the queue wait: started before the
// enqueue (so time blocked on a full queue counts), ended at worker
// pickup. The channel handoff orders the write before the read.
type task struct {
	key     Key
	req     Request
	jobs    []*Job
	running bool
	qspan   *obs.Span
}

// Service runs simulations through a bounded worker pool with
// content-addressed caching. Create with New, release with Close.
type Service struct {
	opts   Options
	store  *artifact.Store // nil when the service is memory-only
	cache  *resultCache
	traces *traceStore // nil when trace-driven simulation is disabled
	m      metrics
	log    *slog.Logger

	ctx    context.Context // canceled on Close: workers abandon queued work
	cancel context.CancelFunc
	queue  chan *task
	wg     sync.WaitGroup

	mu       sync.Mutex
	inflight map[Key]*task
	senders  sync.WaitGroup // Submits blocked on the queue; Close waits before closing it
	closed   bool
}

// New starts a service with opts.Parallelism workers. The caller must
// Close it to release the workers.
func New(opts Options) (*Service, error) {
	if opts.Parallelism <= 0 {
		opts.Parallelism = runtime.GOMAXPROCS(0)
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = DefaultQueueDepth
	}
	if opts.CacheEntries == 0 {
		opts.CacheEntries = 16384
	}
	if opts.TraceMaxOps == 0 {
		opts.TraceMaxOps = 1 << 20
	}
	if opts.ArtifactDir != "" {
		opts.Traces = true
	}
	if opts.Logger == nil {
		opts.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	store := opts.Artifacts
	if store == nil && opts.ArtifactDir != "" {
		var err error
		store, err = artifact.Open(artifact.Options{Dir: opts.ArtifactDir, Logger: opts.Logger})
		if err != nil {
			return nil, fmt.Errorf("simsvc: artifact store: %w", err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		opts:     opts,
		store:    store,
		cache:    newResultCache(store, opts.CacheEntries),
		log:      opts.Logger,
		ctx:      ctx,
		cancel:   cancel,
		queue:    make(chan *task, opts.QueueDepth),
		inflight: make(map[Key]*task),
	}
	if opts.Traces {
		s.traces = newTraceStore(store, opts.TraceMaxOps, &s.m)
	}
	for i := 0; i < opts.Parallelism; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Submit enqueues one request and returns its job handle. A request
// whose result is already cached completes immediately; a request
// identical to one already queued or running joins it instead of
// simulating twice. ctx bounds the enqueue, cancels the job while it
// is still queued, and — once every job coalesced onto the same
// simulation has a dead context — aborts the simulation itself at the
// core's next cancellation checkpoint (a running simulation with at
// least one live waiter is never preempted).
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
		s.m.cacheHits.Add(1)
		s.m.completed.Add(1)
		j.complete(r, nil, true)
		// Checked first: formatting the key is most of what a hit would
		// otherwise allocate.
		if s.log.Enabled(ctx, slog.LevelDebug) {
			s.log.Debug("job_cache_hit", "key", key.String(), "request_id", obs.RequestID(ctx))
		}
		return j, nil
	}
	if t, ok := s.inflight[key]; ok {
		t.jobs = append(t.jobs, j)
		if t.running {
			j.status.Store(int32(StatusRunning))
		}
		s.mu.Unlock()
		s.m.coalesced.Add(1)
		s.log.Debug("job_coalesced", "key", key.String(), "request_id", obs.RequestID(ctx))
		return j, nil
	}
	t := &task{key: key, req: req, jobs: []*Job{j}}
	s.inflight[key] = t
	s.senders.Add(1) // under mu: Close cannot have passed its closed check yet
	s.mu.Unlock()
	defer s.senders.Done()

	// Probe the artifact fabric outside the lock — disk and peer I/O
	// must not stall other Submits or job completions. The task is
	// already registered, so concurrent identical Submits coalesce onto
	// it and are resolved by the detach below.
	pctx, psp := s.opts.Tracer.StartSpan(ctx, "cache.probe")
	if r, ok := s.cache.getStore(pctx, key); ok {
		psp.SetAttr("hit", "true")
		psp.End()
		s.m.cacheHits.Add(1)
		s.m.diskHits.Add(1)
		for _, jb := range s.detach(t) {
			s.m.completed.Add(1)
			jb.complete(r, nil, true)
		}
		s.log.Debug("job_disk_hit", "key", key.String(), "request_id", obs.RequestID(ctx))
		return j, nil
	}
	psp.SetAttr("hit", "false")
	psp.End()
	s.m.cacheMisses.Add(1)

	// The queue-wait span belongs to the first submitter's request; it
	// ends when a worker picks the task up (see run). An enqueue that
	// fails below simply drops the span — only ended spans publish.
	_, t.qspan = s.opts.Tracer.StartSpan(ctx, "queue.wait")
	t.qspan.SetAttr("config", req.label())
	t.qspan.SetAttr("workload", req.Workload)

	select {
	case s.queue <- t:
		s.log.Debug("job_queued", "key", key.String(), "request_id", obs.RequestID(ctx),
			"config", req.label(), "workload", req.Workload)
		return j, nil
	case <-ctx.Done():
		// Fail only this job: other callers may have coalesced onto
		// the task while we were blocked, and their contexts are not
		// canceled. If any remain, hand the enqueue off to a goroutine
		// so they still get their simulation.
		s.mu.Lock()
		rest := t.jobs[:0]
		for _, jb := range t.jobs {
			if jb != j {
				rest = append(rest, jb)
			}
		}
		t.jobs = rest
		if len(rest) == 0 {
			delete(s.inflight, t.key)
		} else {
			// Safe while our own senders hold is still open (Done is
			// deferred), so the counter cannot reach zero in between.
			s.senders.Add(1)
			go func() {
				defer s.senders.Done()
				select {
				case s.queue <- t:
				case <-s.ctx.Done():
					s.abandon(t, ErrClosed)
				}
			}()
		}
		s.mu.Unlock()
		s.m.canceled.Add(1)
		j.complete(result{}, ctx.Err(), false)
		return nil, ctx.Err()
	case <-s.ctx.Done():
		s.abandon(t, ErrClosed)
		return nil, ErrClosed
	}
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
// design-space axes, build the config list with an eole.Grid (or use
// FromGrid) instead of enumerating configs by hand.
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

// FromGrid cartesian-expands a design-space grid and crosses the
// resulting configurations with the workloads: the request list for
// one figure-style sweep, ready for SubmitSweep.
func FromGrid(g eole.Grid, workloads []string, warmup, measure uint64) ([]Request, error) {
	cfgs, err := g.Configs()
	if err != nil {
		return nil, err
	}
	return Cross(cfgs, workloads, warmup, measure), nil
}

// Stats snapshots the service counters.
func (s *Service) Stats() Stats { return s.m.snapshot(s.cache.len()) }

// QueueLen reports how many unique simulations are queued and not yet
// picked up by a worker (running ones excluded). Serving layers use it
// for backpressure: eoled answers 429 instead of queueing once the
// depth crosses its bound.
func (s *Service) QueueLen() int { return len(s.queue) }

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
// and trace spills, or nil when the service is memory-only. Serving
// layers use it to expose the store over HTTP and in metrics.
func (s *Service) Artifacts() *artifact.Store { return s.store }

// Close gracefully shuts the service down: no new submissions are
// accepted, queued-but-unstarted jobs complete with ErrClosed, running
// simulations finish, and the workers exit. Close is idempotent.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	s.mu.Unlock()
	// Cancel first so Submits blocked on a full queue bail out, wait
	// for them, and only then close the queue — no Submit can start a
	// send after closed is set, so the close cannot race a send.
	s.cancel()
	s.senders.Wait()
	close(s.queue)
	s.wg.Wait()
}

// abandon fails every job attached to t and removes it from the
// inflight set (used when the task never reached the queue, or was
// drained after Close).
func (s *Service) abandon(t *task, err error) {
	jobs := s.detach(t)
	for _, j := range jobs {
		s.m.canceled.Add(1)
		j.complete(result{}, err, false)
	}
}

// detach removes t from the inflight set and returns its final job
// list; later identical submissions will hit the cache or start fresh.
func (s *Service) detach(t *task) []*Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.inflight, t.key)
	jobs := t.jobs
	t.jobs = nil
	return jobs
}

func (s *Service) worker() {
	defer s.wg.Done()
	for t := range s.queue {
		s.run(t)
	}
}

// run executes one unique simulation and resolves every coalesced job.
func (s *Service) run(t *task) {
	// Queue wait ends at pickup. End is idempotent, so a task that was
	// requeued after an abandoned run records only its first wait.
	t.qspan.End()
	if s.ctx.Err() != nil {
		s.abandon(t, ErrClosed)
		return
	}
	// Drop jobs whose submit context was canceled while queued; if
	// nobody still wants the result, skip the simulation entirely.
	// The empty check and the inflight removal happen in one critical
	// section, so no Submit can coalesce onto a task that is about to
	// be dropped (it would hang forever).
	s.mu.Lock()
	live := t.jobs[:0]
	var dead []*Job
	for _, j := range t.jobs {
		if j.ctx.Err() != nil {
			dead = append(dead, j)
		} else {
			live = append(live, j)
		}
	}
	t.jobs = live
	if len(live) == 0 {
		delete(s.inflight, t.key)
	} else {
		t.running = true // late coalescers are marked running by Submit
		for _, j := range live {
			j.status.Store(int32(StatusRunning))
		}
	}
	s.mu.Unlock()
	for _, j := range dead {
		s.m.canceled.Add(1)
		j.complete(result{}, j.ctx.Err(), false)
	}
	if len(live) == 0 {
		return
	}

	// Simulate under a context a watcher cancels once every attached
	// job's submit context has died: a running simulation whose waiters
	// are all gone (HTTP clients disconnected, sweep contexts expired)
	// is abandoned at the core's next cancellation checkpoint instead
	// of burning a worker to completion.
	// Request IDs of the waiters, for the lifecycle log lines: one
	// simulation can serve many coalesced requests.
	ids := make([]string, 0, len(live))
	for _, j := range live {
		if id := obs.RequestID(j.ctx); id != "" {
			ids = append(ids, id)
		}
	}
	s.log.Info("sim_start", "key", t.key.String(), "config", t.req.label(),
		"workload", t.req.Workload, "waiters", len(live), "request_ids", ids)

	// The run context is detached from the waiters (they come and go;
	// cancellation is the watcher's job) but carries the first live
	// waiter's span, so the simulation-phase spans land in the trace of
	// the request that triggered the run.
	base := context.Background()
	if sp := obs.SpanFrom(live[0].ctx); sp != nil {
		base = obs.ContextWithSpan(base, sp)
	}
	runCtx, cancelRun := context.WithCancel(base)
	stopWatch := make(chan struct{})
	go s.watchWaiters(t, cancelRun, stopWatch)
	start := time.Now()
	rep, err := s.simulate(runCtx, t.req)
	elapsed := time.Since(start)
	close(stopWatch)
	// Read the abandonment verdict before releasing the context: after
	// cancelRun, runCtx.Err() is non-nil for ordinary failures too.
	abandoned := runCtx.Err() != nil
	cancelRun()
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
		if abandoned {
			s.m.abandonedRuns.Add(1)
			s.log.Info("sim_abandoned", "key", t.key.String(), "workload", t.req.Workload,
				"duration_ms", elapsed.Milliseconds(), "request_ids", ids)
			s.finishAbandoned(t)
			return
		}
		s.log.Info("sim_failed", "key", t.key.String(), "workload", t.req.Workload,
			"error", err.Error(), "request_ids", ids)
		for _, j := range s.detach(t) {
			s.m.failed.Add(1)
			j.complete(result{}, err, false)
		}
		return
	}
	s.log.Info("sim_done", "key", t.key.String(), "config", t.req.label(),
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
	s.cache.spill(spillCtx, t.key, res.enc)
	cancelSpill()
}

// waiterPollInterval is how often a running task re-checks that
// somebody still wants its result. It bounds the detection latency of
// "all waiters gone"; the simulation itself then stops at the core's
// next cancellation checkpoint.
const waiterPollInterval = 25 * time.Millisecond

// watchWaiters cancels a running task's context once every job
// attached to it has a dead submit context. Jobs that coalesce onto
// the task mid-run extend its life — they are visible here because
// t.jobs is read under the service lock. The watcher exits when the
// simulation finishes (stop) or when it pulls the trigger.
func (s *Service) watchWaiters(t *task, cancel context.CancelFunc, stop <-chan struct{}) {
	ticker := time.NewTicker(waiterPollInterval)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			s.mu.Lock()
			live := false
			for _, j := range t.jobs {
				if j.ctx.Err() == nil {
					live = true
					break
				}
			}
			s.mu.Unlock()
			if !live {
				cancel()
				return
			}
		}
	}
}

// finishAbandoned resolves a task whose simulation was canceled
// mid-run. Jobs whose submit context died complete with that error; a
// job that coalesced onto the task after the watcher pulled the
// trigger (a narrow race the inflight map allows) is re-enqueued so
// it still gets its simulation.
func (s *Service) finishAbandoned(t *task) {
	s.mu.Lock()
	var dead, live []*Job
	for _, j := range t.jobs {
		if j.ctx.Err() != nil {
			dead = append(dead, j)
		} else {
			live = append(live, j)
		}
	}
	requeue := false
	if len(live) == 0 {
		delete(s.inflight, t.key)
		t.jobs = nil
	} else if s.closed {
		// The queue may already be closed; fail the stragglers.
		delete(s.inflight, t.key)
		t.jobs = nil
	} else {
		t.jobs = live
		t.running = false
		s.senders.Add(1) // under mu: Close cannot have passed its closed check yet
		requeue = true
	}
	s.mu.Unlock()
	for _, j := range dead {
		s.m.canceled.Add(1)
		j.complete(result{}, j.ctx.Err(), false)
	}
	switch {
	case requeue:
		go func() {
			defer s.senders.Done()
			select {
			case s.queue <- t:
			case <-s.ctx.Done():
				s.abandon(t, ErrClosed)
			}
		}()
	default:
		for _, j := range live {
			s.m.canceled.Add(1)
			j.complete(result{}, ErrClosed, false)
		}
	}
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
