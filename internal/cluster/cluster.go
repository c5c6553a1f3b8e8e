// Package cluster distributes simulation sweeps across a set of
// remote eoled workers. A Coordinator decomposes a sweep — a list of
// simsvc.Requests, typically built from named configs or a design-space
// grid crossed with workloads — into cells keyed by the existing simsvc
// content address, dedupes identical cells cluster-wide, and dispatches
// them over eoled's HTTP API. A dispatch is one request: POST
// /v1/simulate with the cell's inline config, whose 200 body is the
// report. The request is the cell's waiter on the worker, so ending it
// — the sweep canceled, the coordinator closed or gone, a dispatch
// timeout — abandons the simulation there, and nothing is left to
// clean up. A connection that drops mid-cell is a failed dispatch like
// any other: the cell is requeued, not re-attached.
//
// The dispatcher is pull-based: every worker draws cells from one
// shared queue, bounded by a per-worker in-flight cap, so a fast or
// idle worker naturally steals work a loaded one has not taken yet.
// Workers are health-checked with periodic GET /v1/healthz probes
// (exponential backoff while failing); after FailureThreshold
// consecutive failures — probe or connection-level dispatch failures —
// a worker's circuit opens and it stops receiving cells until a probe
// succeeds again. A cell whose dispatch fails is requeued and retried
// on whatever worker next has capacity, so killing a worker mid-sweep
// loses no cells; a worker answering 429 is backpressure, not failure:
// the cell is requeued without consuming a retry attempt and the worker
// rests for the Retry-After hint.
//
// A report stays in its encoded form from the worker to the caller:
// the coordinator checks a relayed report against the one canonical
// encoding (simsvc.CanonicalReport), keeps the bytes, and relabels by
// splicing exactly as eoled does, so a distributed sweep returns
// reports byte-identical to the same sweep run in one process. The
// coordinator is also the fleet's result tier for what it dispatches
// (Options.Store): a cell it already holds is answered without a
// worker, every relayed report is stored, and trace leads are gated so
// each workload is interpreted once fleet-wide.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"eole/internal/artifact"
	"eole/internal/jobs"
	"eole/internal/obs"
)

// ErrNoWorkers is the per-cell error when every worker's circuit is
// open and nothing is in flight: the cluster is unreachable, so queued
// cells fail instead of waiting forever (bound the wait with a context
// deadline to ride out a full outage instead).
var ErrNoWorkers = errors.New("cluster: no live workers")

// ErrClosed is returned for work submitted after Close.
var ErrClosed = errors.New("cluster: coordinator closed")

// Health is the wire form of eoled's GET /v1/healthz: cheap liveness
// plus enough identity for a load balancer or the cluster prober.
type Health struct {
	Status      string `json:"status"` // "ok"
	Version     string `json:"version"`
	UptimeNS    int64  `json:"uptime_ns"`
	Parallelism int    `json:"parallelism"`
	QueueLen    int    `json:"queue_len"`
	Coordinator bool   `json:"coordinator"`
}

// EndpointStats is the wire form of one endpoint's request counters in
// eoled's /v1/stats ("endpoints" object): merged cluster stats use it
// to attribute load per worker and per endpoint.
type EndpointStats struct {
	Requests uint64 `json:"requests"`
	Errors   uint64 `json:"errors"`
}

// Options configures a Coordinator. Workers and Store are required;
// everything else has serviceable defaults.
type Options struct {
	// Workers lists the eoled base URLs ("http://host:8080"; a bare
	// host:port gets the http scheme).
	Workers []string
	// Client issues every probe and dispatch (default: a client with no
	// global timeout — simulations can be long, and per-request contexts
	// bound them instead — that keeps MaxInFlight idle connections per
	// worker, so a dispatch reuses one instead of dialing).
	Client *http.Client
	// Store is this node's own artifact store, and makes the
	// coordinator the owner of the result tier for the cells it
	// dispatches: Start answers a cell the store already holds without
	// dispatching it, every relayed report is stored, and workers are
	// told to leave their artifact peer out of it (the dispatch carries
	// "relayed": true). The store also lets the coordinator be its
	// workers' artifact peer, so it gates trace leads: a workload's
	// first cell is dispatched alone and its siblings hold until it
	// completes, by which time its worker has pushed the trace to its
	// peer for theirs to fetch (pure scheduling: results are
	// byte-identical either way).
	Store *artifact.Store
	// ProbeInterval is the healthy-state probe period (default 1s).
	// While a worker fails, the interval doubles per failure up to
	// 16× as backoff.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe round trip (default 2s).
	ProbeTimeout time.Duration
	// FailureThreshold is how many consecutive failures (probes or
	// connection-level dispatch errors) open a worker's circuit
	// (default 3).
	FailureThreshold int
	// MaxInFlight bounds concurrent dispatches per worker (default 4).
	MaxInFlight int
	// MaxAttempts caps how many times one cell is dispatched before it
	// fails for good (default max(3, len(Workers)+2)). 429 backpressure
	// does not consume an attempt.
	MaxAttempts int
	// DispatchTimeout bounds one cell's round trip (0 = unbounded, the
	// default: simulations can legitimately run for minutes). Set it
	// when a wedged-but-connectable worker — one that accepts the POST
	// but never answers, while its /v1/healthz keeps the circuit
	// closed — must not pin a cell forever: the timeout fails the
	// dispatch into the ordinary retry-with-requeue path.
	DispatchTimeout time.Duration
	// Logger receives cluster events (nil = discard): circuit
	// open/close transitions at Info, per-cell dispatches at Debug.
	// Dispatch events carry the sweep's request ID so a coordinator's
	// logs line up with the worker-side access logs.
	Logger *slog.Logger
	// Tracer, when set, records one dispatch span per cell attempt
	// (worker, attempt number, outcome — requeues and throttles
	// included), stamps the W3C traceparent header on every worker
	// request so worker-side spans join the sweep's trace, and — once
	// a run's cells are all terminal — fetches each participating
	// worker's spans for the trace and splices them into the local
	// ring: one cross-process waterfall per sweep.
	Tracer *obs.Tracer
}

// worker is the coordinator's view of one eoled. Mutable state is
// guarded by Coordinator.mu; the counters are atomic so Stats can read
// them without the lock.
type worker struct {
	url string
	api *jobs.Client // every request to this worker goes through it

	// Guarded by Coordinator.mu.
	open           bool // circuit open: excluded from dispatch
	consecFails    int
	lastErr        string
	throttledUntil time.Time
	inflight       int
	health         Health // last successful probe payload

	dispatched atomic.Uint64
	completed  atomic.Uint64
	failed     atomic.Uint64 // cells that failed permanently on this worker
	requeued   atomic.Uint64 // retryable failures handed back to the queue
	throttled  atomic.Uint64 // 429 backpressure responses
}

// Coordinator shards sweeps across a fixed set of eoled workers. Create
// with New, release with Close.
type Coordinator struct {
	opts    Options
	workers []*worker
	log     *slog.Logger

	ctx    context.Context // canceled by Close: probers exit, runs drain
	cancel context.CancelFunc
	wg     sync.WaitGroup
	// transport is the one New built for itself (nil with a caller's
	// Options.Client): Close drops its idle connections.
	transport *http.Transport

	mu   sync.Mutex
	cond *sync.Cond // broadcast on any dispatchability change
}

// New builds a coordinator over the given workers and starts their
// health probers. Workers start optimistically healthy, so dispatch
// can begin before the first probe completes.
func New(opts Options) (*Coordinator, error) {
	if len(opts.Workers) == 0 {
		return nil, errors.New("cluster: no workers configured")
	}
	if opts.Store == nil {
		return nil, errors.New("cluster: no artifact store: a coordinator keeps what it relays")
	}
	if opts.ProbeInterval <= 0 {
		opts.ProbeInterval = time.Second
	}
	if opts.ProbeTimeout <= 0 {
		opts.ProbeTimeout = 2 * time.Second
	}
	if opts.FailureThreshold <= 0 {
		opts.FailureThreshold = 3
	}
	if opts.MaxInFlight <= 0 {
		opts.MaxInFlight = 4
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = max(3, len(opts.Workers)+2)
	}
	if opts.Logger == nil {
		opts.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	var transport *http.Transport
	if opts.Client == nil {
		// The default transport keeps two idle connections per host; a
		// worker has up to MaxInFlight dispatches finishing at once.
		transport = http.DefaultTransport.(*http.Transport).Clone()
		transport.MaxIdleConnsPerHost = opts.MaxInFlight
		opts.Client = &http.Client{Transport: transport}
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &Coordinator{opts: opts, log: opts.Logger, ctx: ctx, cancel: cancel, transport: transport}
	c.cond = sync.NewCond(&c.mu)
	seen := make(map[string]bool, len(opts.Workers))
	for _, u := range opts.Workers {
		u = normalizeURL(u)
		if u == "" {
			cancel()
			return nil, fmt.Errorf("cluster: empty worker address")
		}
		if seen[u] {
			continue // one prober and one slot set per distinct worker
		}
		seen[u] = true
		c.workers = append(c.workers, &worker{url: u, api: &jobs.Client{Base: u, HTTP: opts.Client}})
	}
	// Close and run-context cancellations must wake dispatch loops
	// blocked on the condition variable.
	context.AfterFunc(ctx, c.wake)
	for _, w := range c.workers {
		c.wg.Add(1)
		go c.probeLoop(w)
	}
	return c, nil
}

// normalizeURL defaults the scheme to http and strips a trailing slash
// so path joins are uniform.
func normalizeURL(u string) string {
	u = strings.TrimSpace(u)
	if u == "" {
		return ""
	}
	if !strings.Contains(u, "://") {
		u = "http://" + u
	}
	return strings.TrimRight(u, "/")
}

// Close stops the health probers, ends in-flight dispatches (their
// workers abandon the cells) and wakes any blocked runs, which fail
// what they still hold with ErrClosed. Idle connections of the
// coordinator's own client are dropped (a caller's Options.Client is
// the caller's to close). Close is idempotent.
func (c *Coordinator) Close() {
	c.cancel()
	c.wg.Wait()
	if c.transport != nil {
		c.transport.CloseIdleConnections()
	}
}

// wake broadcasts under the coordinator lock. Asynchronous wakers
// (throttle-expiry timers, context cancellations) must not call
// Broadcast bare: it could land in the window between a dispatch
// loop's predicate check and its cond.Wait — both under mu — and wake
// nobody, parking the run forever.
func (c *Coordinator) wake() {
	c.mu.Lock()
	c.cond.Broadcast()
	c.mu.Unlock()
}

// noteFailureLocked counts one failed probe or connection-level
// dispatch failure against the worker — one count for both, so a
// killed worker's circuit opens after FailureThreshold broken
// dispatches instead of waiting out a probe cycle — and opens its
// circuit at the threshold. Requires c.mu.
func (c *Coordinator) noteFailureLocked(w *worker, err error) {
	w.consecFails++
	w.lastErr = err.Error()
	if w.consecFails >= c.opts.FailureThreshold && !w.open {
		w.open = true
		c.log.Info("circuit_open", "worker", w.url, "consecutive_failures", w.consecFails, "error", w.lastErr)
		// A retried cell waiting for this worker may now revisit one it
		// has tried, and an all-open fleet must fail fast.
		c.cond.Broadcast()
	}
}

// pickWorkerLocked returns the dispatchable worker with the fewest
// in-flight cells (nil when none is dispatchable: circuits open, slots
// full, or throttled). A retried cell must actually go *elsewhere*:
// while any closed-circuit worker it has not visited remains — even a
// busy or throttled one — the workers it has tried are out, and nil
// means "wait for that one", not "hand the whole attempt budget to the
// fast-failing worker that keeps having the freest slot". A tried
// worker is revisited only once no untried one is left. Requires c.mu.
func (c *Coordinator) pickWorkerLocked(tried map[*worker]bool, now time.Time) *worker {
	untriedLeft := false
	for _, w := range c.workers {
		if !w.open && !tried[w] {
			untriedLeft = true
			break
		}
	}
	var best *worker
	for _, w := range c.workers {
		if w.open || (untriedLeft && tried[w]) ||
			w.inflight >= c.opts.MaxInFlight || now.Before(w.throttledUntil) {
			continue
		}
		if best == nil || w.inflight < best.inflight {
			best = w
		}
	}
	return best
}

// allOpenLocked reports whether every worker's circuit is open.
// Requires c.mu.
func (c *Coordinator) allOpenLocked() bool {
	for _, w := range c.workers {
		if !w.open {
			return false
		}
	}
	return true
}

// WorkerStatus is one worker's health and dispatch accounting, as
// served by eoled's GET /v1/cluster/workers.
type WorkerStatus struct {
	URL string `json:"url"`
	// State is "healthy", "degraded" (recent failures, circuit still
	// closed) or "open" (circuit broken, excluded from dispatch).
	State               string `json:"state"`
	ConsecutiveFailures int    `json:"consecutive_failures,omitempty"`
	LastError           string `json:"last_error,omitempty"`
	Version             string `json:"version,omitempty"`
	InFlight            int    `json:"in_flight"`
	Dispatched          uint64 `json:"dispatched"`
	Completed           uint64 `json:"completed"`
	Failed              uint64 `json:"failed"`
	Requeued            uint64 `json:"requeued"`
	Throttled           uint64 `json:"throttled"`
}

// Workers snapshots every worker's status.
func (c *Coordinator) Workers() []WorkerStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]WorkerStatus, len(c.workers))
	for i, w := range c.workers {
		st := WorkerStatus{
			URL:                 w.url,
			State:               "healthy",
			ConsecutiveFailures: w.consecFails,
			LastError:           w.lastErr,
			Version:             w.health.Version,
			InFlight:            w.inflight,
			Dispatched:          w.dispatched.Load(),
			Completed:           w.completed.Load(),
			Failed:              w.failed.Load(),
			Requeued:            w.requeued.Load(),
			Throttled:           w.throttled.Load(),
		}
		switch {
		case w.open:
			st.State = "open"
		case w.consecFails > 0:
			st.State = "degraded"
		}
		out[i] = st
	}
	return out
}
