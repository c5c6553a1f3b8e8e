// Command eoled serves the EOLE simulator over HTTP: requests share one
// worker pool, one content-addressed result cache and one store of
// recorded traces, so identical asks simulate once. Given -peers it
// coordinates a fleet of other eoleds.
//
// Usage:
//
//	eoled [flags]
//
// Example:
//
//	eoled -addr :8080 -artifact-dir /var/cache/eole &
//	curl -s localhost:8080/v1/simulate -d '{"config":"EOLE_4_64","workload":"namd"}'
//
// README.md lists every flag and endpoint, cluster mode and tracing.
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
	"eole/internal/obs"
	"eole/internal/simsvc"
)

// version identifies this server build on /v1/healthz and /v1/stats.
// Bump alongside schema-visible changes so cluster operators can spot
// a mixed-version fleet from GET /v1/cluster/workers.
const version = "0.10.0"

// options holds eoled's command-line settings; defineFlags is the one
// place they are declared, so a test can enumerate them.
type options struct {
	addr, artifactDir, artifactPeer, peers, logFormat, logLevel, pprofAddr string
	par, cacheN, maxQueue, traceRing                                       int
	warmup, measure, maxUops, traceMax                                     uint64
	workerOn                                                               bool
	slowReq                                                                time.Duration

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
	fs.IntVar(&o.traceRing, "trace-ring", obs.DefaultTraceRing, "retain the most recent N request traces for /v1/debug/traces (0 disables tracing)")
	fs.DurationVar(&o.slowReq, "slow-request", 10*time.Second, "WARN-log any request slower than this with its trace ID and slowest spans (0 disables)")
	fs.StringVar(&o.logFormat, "log-format", "text", "structured log encoding: text or json")
	fs.StringVar(&o.logLevel, "log-level", "info", "minimum log level: debug, info, warn or error (debug adds per-cell and per-dispatch records)")
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
