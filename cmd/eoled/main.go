// Command eoled serves the EOLE simulator over HTTP as a batch
// simulation service: requests share one worker pool and one
// content-addressed result cache, so identical (config, workload,
// warmup, measure) asks — from one client or many — simulate once.
//
// The service is also trace-driven: the committed µ-op stream of each
// workload is recorded once and replayed for every configuration, so a
// sweep interprets each workload one time instead of once per config
// (replay is byte-identical to execute-driven simulation). Persist
// recordings across restarts with -artifact-dir.
//
// Endpoints (all JSON):
//
//	POST /v1/simulate        {"config":"EOLE_4_64","workload":"namd","warmup":50000,"measure":200000}
//	POST /v1/sweep           {"configs":[...],"grid":{...},"workloads":[...],"warmup":...,"measure":...}
//	                         (with -peers: sharded across the worker fleet)
//	POST /v1/jobs            same bodies as simulate/sweep; answers 202 with a job id immediately
//	GET  /v1/jobs            list retained jobs (active + recently finished)
//	GET  /v1/jobs/{id}       job status: state, cells completed/total, per-cell errors
//	DELETE /v1/jobs/{id}     cancel: queued cells dropped, running sims abandoned
//	GET  /v1/jobs/{id}/events  per-cell completion stream: SSE (default) or NDJSON via Accept;
//	                           replays completed cells on attach, ?from=N / Last-Event-ID resumes
//	GET  /v1/configs         named machine configurations
//	GET  /v1/workloads       the 19 benchmarks
//	GET  /v1/traces          recorded µ-op traces (workload, length, bytes)
//	GET  /v1/artifacts/{kind}/{key}  serve one stored artifact (also HEAD)
//	PUT  /v1/artifacts/{kind}/{key}  store one validated artifact
//	GET  /v1/stats           service counters plus per-endpoint request/error counters
//	GET  /v1/healthz         cheap liveness (status, version, uptime, queue depth)
//	GET  /v1/debug/traces    recent request traces (timed spans), newest first
//	GET  /v1/debug/traces/{id}  one assembled trace by trace or request ID; ?format=svg renders a timeline
//	GET  /v1/figures         renderable artefacts; /v1/figures/{id} serves one as SVG
//	GET  /metrics            Prometheus text exposition
//	GET  /v1/cluster/workers (with -peers) per-worker health, counters and merged stats
//
// Persistence: -artifact-dir roots a content-addressed artifact fabric
// holding simulation results and recorded traces (memory LRU → disk →
// optional -artifact-peer HTTP tier). Results and traces survive
// restarts — a restarted server answers previously simulated requests
// from disk without simulating — and /v1/simulate and /v1/sweep emit
// ETags derived from the request's content address, so clients can
// revalidate cached responses with If-None-Match and get 304s without
// any simulation work. Workers started with -artifact-peer pointing at
// the coordinator push freshly recorded traces there and fetch ones
// their siblings recorded, so a cluster interprets each workload once
// fleet-wide (the coordinator dispatches each workload's first cell
// alone so there is a trace to fetch). Results of the cells a
// coordinator dispatches do not travel that way: they are the body of
// the dispatch's reply, and the coordinator keeps them in its own
// store.
//
// Cluster mode: any eoled can coordinate a fleet of others. Start
// workers normally (optionally with -worker to document the role) and
// one coordinator with -peers listing them; the coordinator's POST
// /v1/sweep (also routed as POST /v1/cluster/sweep) then decomposes
// the sweep into content-addressed cells, dedupes identical cells
// cluster-wide, dispatches each as one POST /v1/simulate on a worker
// with health-checked, bounded-in-flight, work-stealing scheduling,
// and stitches the reply from the report bytes the workers relay —
// byte-identical to the same sweep on one node, ETag and 304 included.
// Cells the coordinator's own store already holds are answered
// without a dispatch ("cached"). A killed worker's cells, and a cell
// whose dispatch connection drops, are dispatched again (to a worker
// the cell has not tried first); a coordinator that goes away leaves
// nothing running, since each worker abandons a cell whose dispatch
// disconnected. Backpressure: rather than let a
// request push the queue of unique pending simulations past
// -max-queue, simulate/sweep/jobs answer 429 with a Retry-After hint,
// which the coordinator treats as "rest this worker", not failure; a
// coordinator's own sweep is not admitted against its local queue.
// eolesim -server and experiments -server post their sweeps to any
// eoled's /v1/sweep, so they reach a fleet through its coordinator.
//
// Configurations are first-class values: wherever a request takes a
// config name it also takes an inline Config object, validated and
// cached by its canonical fingerprint — an inline config
// field-identical to a named one shares its cache entry. /v1/sweep
// additionally accepts a design-space grid ({"base_name":"EOLE_4_64",
// "axes":[{"option":"PRFBanks","values":[2,4,8]}]}) that the server
// cartesian-expands into validated configs. Disconnecting a client
// cancels its jobs: queued ones leave the queue at once, and a running
// simulation whose waiters are all gone is abandoned at the core's
// next cancellation checkpoint.
//
// Tracing: every request is traced end to end with per-phase timed
// spans — HTTP handling, cache probe, queue wait, trace load, warm-up,
// detailed run, cluster dispatch attempts, artifact peer fetches —
// retained in a bounded in-memory ring (-trace-ring, 0 disables) and
// served on GET /v1/debug/traces. Responses carry X-Eole-Trace-Id;
// requests may carry a W3C traceparent header to join a caller's
// trace, which is how a coordinator's dispatches thread one trace
// through its workers (it fetches their spans back after the sweep, so
// the assembled trace is one cross-process waterfall). Requests slower
// than -slow-request escalate to a WARN log record naming the trace
// and its slowest spans. Spans are per-phase, never per-µ-op: the
// simulation hot loop is untouched, and with -trace-ring 0 each
// instrumentation point costs one nil check.
//
// Sampled simulation: /v1/simulate and /v1/sweep take an optional
// "sampling" object ({"windows":8,"skip":0,"warm":40000}): the run
// then alternates functional-warming fast-forwards with short
// detailed measurement windows (SMARTS-style), and the report carries
// "ipc" as the window mean plus "ipc_ci" (the 95% confidence
// half-width), "sampled" and "sample_windows". Sampled and full runs
// never share a cache entry. Intended for the long-* workloads, whose
// recommended ~12M-µ-op streams are intractable to simulate in full.
//
// Example:
//
//	eoled -addr :8080 -artifact-dir /var/cache/eole &
//	curl -s localhost:8080/v1/simulate -d '{"config":"EOLE_4_64","workload":"namd"}'
//	curl -s localhost:8080/v1/simulate -d '{"config":{"IssueWidth":5,...},"workload":"namd"}'
//	curl -s localhost:8080/v1/sweep -d '{"grid":{"base_name":"EOLE_4_64","axes":[{"option":"PRFBanks","values":[2,4,8]}]},"workloads":["namd"]}'
//	curl -s localhost:8080/v1/simulate -d '{"config":"EOLE_4_64","workload":"long-dram","warmup":50000,"measure":160000,"sampling":{"windows":8,"warm":40000}}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"eole/internal/artifact"
	"eole/internal/cluster"
	"eole/internal/jobs"
	"eole/internal/obs"
	"eole/internal/simsvc"
)

// version identifies this server build on /v1/healthz and /v1/stats.
// Bump alongside schema-visible changes so cluster operators can spot
// a mixed-version fleet from GET /v1/cluster/workers.
const version = "0.9.1"

// options holds eoled's command-line settings; defineFlags is the one
// place they are declared, so a test can enumerate them.
type options struct {
	addr, artifactDir, artifactPeer, peers, logFormat, logLevel, pprofAddr string
	par, cacheN, maxQueue, maxJobs, traceRing                              int
	warmup, measure, maxUops, traceMax                                     uint64
	workerOn                                                               bool
	jobTTL, jobHeartbeat, slowReq                                          time.Duration

	logLvl slog.Level // -log-level, resolved by validate
}

func defineFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.addr, "addr", ":8080", "listen address")
	fs.IntVar(&o.par, "parallelism", 0, "concurrent simulations (0 = GOMAXPROCS)")
	fs.StringVar(&o.artifactDir, "artifact-dir", "", "persist the artifact fabric (results under <dir>/result, traces under <dir>/trace)")
	fs.StringVar(&o.artifactPeer, "artifact-peer", "", "base URL of a peer eoled whose /v1/artifacts backs cache misses (workers point this at the coordinator)")
	fs.IntVar(&o.cacheN, "cache-entries", 0, "in-memory result cache bound (0 = 16384, negative = unbounded)")
	fs.Uint64Var(&o.warmup, "default-warmup", 50_000, "warm-up µ-ops when a request omits warmup")
	fs.Uint64Var(&o.measure, "default-measure", 200_000, "measured µ-ops when a request omits measure")
	fs.Uint64Var(&o.maxUops, "max-uops", 50_000_000, "per-request ceiling on warmup+measure µ-ops (0 = unlimited)")
	fs.IntVar(&o.maxQueue, "max-queue", 1024, "queue-depth bound: answer 429 with Retry-After rather than let a request push the queue of unique pending simulations past this (0 = no 429 and no other bound: every request is queued)")
	fs.Uint64Var(&o.traceMax, "max-trace-uops", 0, "µ-ops of a workload's trace that replays may hold decoded (a 16 B record each; 0 = 1M): a full run beyond it runs execute-driven and a full run reads no more of a longer trace, a sampled run streams its trace, holds nothing decoded and replays up to 16x it")
	fs.StringVar(&o.peers, "peers", "", "comma-separated worker eoled addresses: act as a cluster coordinator (/v1/sweep shards across them; enables /v1/cluster/*)")
	fs.BoolVar(&o.workerOn, "worker", false, "pure worker mode: serve simulations only, never coordinate (mutually exclusive with -peers)")
	fs.DurationVar(&o.jobTTL, "job-ttl", 15*time.Minute, "retain finished async jobs this long for late polls and event replays")
	fs.IntVar(&o.maxJobs, "max-jobs", 512, "bound on retained async jobs; at the bound the oldest finished job is evicted, and all-active answers 429")
	fs.DurationVar(&o.jobHeartbeat, "job-heartbeat", 15*time.Second, "keep-alive interval on idle job event streams")
	fs.IntVar(&o.traceRing, "trace-ring", obs.DefaultTraceRing, "retain the most recent N request traces for /v1/debug/traces (0 disables tracing)")
	fs.DurationVar(&o.slowReq, "slow-request", 10*time.Second, "WARN-log any request slower than this with its trace ID and slowest spans (0 disables)")
	fs.StringVar(&o.logFormat, "log-format", "text", "structured log encoding: text or json")
	fs.StringVar(&o.logLevel, "log-level", "info", "minimum log level: debug, info, warn or error (debug adds per-job and per-dispatch records)")
	fs.StringVar(&o.pprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060); off by default and never on the API listener")
	return o
}

func main() {
	o := defineFlags(flag.CommandLine)
	flag.Parse()
	if err := o.validate(); err != nil {
		fmt.Fprintln(os.Stderr, "eoled:", err)
		os.Exit(1)
	}
	logger := o.newLogger(os.Stderr)

	// The tracer's service identity carries the listen address so a
	// cross-process waterfall says which eoled ran each span. A nil
	// tracer (-trace-ring 0) disables every instrumentation point.
	var tracer *obs.Tracer
	if o.traceRing > 0 {
		tracer = obs.NewTracer("eoled@"+o.addr, o.traceRing)
	}

	// The artifact store is always created — even with no directory
	// it provides the memory tier behind /v1/artifacts, which is what
	// lets a diskless coordinator relay traces between workers. It is
	// built here (not inside simsvc) so the HTTP layer and the service
	// share one store and one set of tier counters.
	var peer artifact.Peer
	if o.artifactPeer != "" {
		peer = artifact.NewHTTPPeer(o.artifactPeer)
	}
	store, err := artifact.Open(artifact.Options{
		Dir:    o.artifactDir,
		Peer:   peer,
		Logger: logger,
		Tracer: tracer,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "eoled:", err)
		os.Exit(1)
	}
	if store.Persistent() {
		logger.Info("artifact_fabric", "dir", o.artifactDir, "peer", o.artifactPeer)
	}

	svc, err := simsvc.New(simsvc.Options{
		Parallelism:  o.par,
		Artifacts:    store,
		CacheEntries: o.cacheN,
		TraceMaxOps:  o.traceMax,
		Logger:       logger,
		Tracer:       tracer,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "eoled:", err)
		os.Exit(1)
	}

	registry := jobs.New(svc, jobs.Options{
		TTL:     o.jobTTL,
		MaxJobs: o.maxJobs,
		Logger:  logger,
		Tracer:  tracer,
	})

	var coord *cluster.Coordinator
	if o.peers != "" {
		coord, err = cluster.New(cluster.Options{
			Workers: strings.Split(o.peers, ","),
			Store:   store,
			Logger:  logger,
			Tracer:  tracer,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "eoled:", err)
			os.Exit(1)
		}
		defer coord.Close()
		logger.Info("cluster_coordinating", "workers", len(coord.Workers()))
	}

	if o.pprofAddr != "" {
		// pprof gets its own mux on its own listener, so profiling
		// endpoints are never reachable through the API address.
		go servePprof(logger, o.pprofAddr)
	}

	// openConns tracks connections the listener has accepted and not
	// yet closed, so the shutdown log can say how many were still open
	// when the grace period ran out.
	var openConns atomic.Int64
	srv := &http.Server{
		Handler: newServer(svc, serverOptions{
			defaultWarmup:  o.warmup,
			defaultMeasure: o.measure,
			maxUops:        o.maxUops,
			maxQueue:       o.maxQueue,
			version:        version,
			coord:          coord,
			jobs:           registry,
			jobHeartbeat:   o.jobHeartbeat,
			logger:         logger,
			tracer:         tracer,
			slowRequest:    o.slowReq,
		}),
		ReadHeaderTimeout: 10 * time.Second,
		ConnState: func(_ net.Conn, state http.ConnState) {
			switch state {
			case http.StateNew:
				openConns.Add(1)
			case http.StateClosed, http.StateHijacked:
				openConns.Add(-1)
			}
		},
	}

	// Listen explicitly (rather than ListenAndServe) so a bind failure
	// is reported before the serving goroutine starts, and the startup
	// log can carry the resolved address — ":0" style addresses resolve
	// to a real port worth printing.
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		logger.Error("listen_failed", "addr", o.addr, "error", err.Error())
		os.Exit(1)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	logger.Info("listening",
		"addr", ln.Addr().String(),
		"parallelism", svc.Parallelism(),
		"version", version)

	select {
	case err := <-errc:
		logger.Error("serve_failed", "addr", ln.Addr().String(), "error", err.Error())
		os.Exit(1)
	case <-ctx.Done():
	}
	// Restore default signal handling: a second SIGINT/SIGTERM kills
	// the process instead of being swallowed while we drain.
	stop()

	logger.Info("shutting_down", "open_connections", openConns.Load(), "inflight_sims", svc.InFlight())
	shutCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			logger.Warn("shutdown_grace_expired", "open_connections", openConns.Load())
		} else {
			logger.Error("shutdown_failed", "error", err.Error())
		}
	}
	// Async jobs outlive their creating requests, so the HTTP drain
	// above does not cover them: cancel what is still active and wait
	// for the runners before closing the service they submit into.
	registry.Close()
	// Simulations are not preemptible: Close returns once running ones
	// finish (queued ones are abandoned), which can outlast the HTTP
	// grace period for long requests.
	if n := svc.InFlight(); n > 0 {
		logger.Info("draining_sims", "inflight_sims", n)
	}
	svc.Close()
	logger.Info("stopped")
}

// validate refuses the settings eoled cannot start with and resolves
// -log-level; main calls it before acting on any flag.
func (o *options) validate() error {
	if o.workerOn && o.peers != "" {
		return errors.New("-worker and -peers are mutually exclusive")
	}
	switch o.logLevel {
	case "debug":
		o.logLvl = slog.LevelDebug
	case "info":
		o.logLvl = slog.LevelInfo
	case "warn":
		o.logLvl = slog.LevelWarn
	case "error":
		o.logLvl = slog.LevelError
	default:
		return fmt.Errorf("unknown -log-level %q (debug, info, warn or error)", o.logLevel)
	}
	if o.logFormat != "text" && o.logFormat != "json" {
		return fmt.Errorf("unknown -log-format %q (text or json)", o.logFormat)
	}
	return nil
}

// newLogger builds the process logger from validated options.
func (o *options) newLogger(w io.Writer) *slog.Logger {
	opts := &slog.HandlerOptions{Level: o.logLvl}
	if o.logFormat == "json" {
		return slog.New(slog.NewJSONHandler(w, opts))
	}
	return slog.New(slog.NewTextHandler(w, opts))
}

// servePprof serves net/http/pprof on its own listener and mux. A
// profiler failing to bind is worth a log line, not a dead process.
func servePprof(logger *slog.Logger, addr string) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		logger.Error("pprof_listen_failed", "addr", addr, "error", err.Error())
		return
	}
	logger.Info("pprof_listening", "addr", ln.Addr().String())
	if err := http.Serve(ln, mux); err != nil {
		logger.Error("pprof_serve_failed", "error", err.Error())
	}
}
