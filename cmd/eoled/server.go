package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"time"

	"eole"
	"eole/internal/artifact"
	"eole/internal/cluster"
	"eole/internal/obs"
	"eole/internal/simsvc"
)

// maxBodyBytes caps request bodies; the largest legitimate sweep body
// (every config and workload named in full) is well under 64KB.
const maxBodyBytes = 1 << 20

// maxSweepCells caps the (configs × workloads) grid of one sweep
// request. The full named grid is 11×19 = 209 cells; the cap leaves
// generous headroom while keeping one request from allocating an
// unbounded response.
const maxSweepCells = 4096

// serverOptions configures the HTTP layer around the simulation
// service.
type serverOptions struct {
	// Defaults applied when a request omits warmup/measure, and the
	// per-request ceiling protecting the worker pool from unbounded
	// simulations.
	defaultWarmup  uint64
	defaultMeasure uint64
	maxUops        uint64
	// maxQueue is the 429 backpressure threshold: once the service's
	// queue of unique pending simulations reaches it, simulate/sweep
	// requests are answered 429 with a Retry-After hint instead of
	// queueing unboundedly (0 = disabled).
	maxQueue int
	// version is reported by /v1/healthz and /v1/stats.
	version string
	// coord, when non-nil, makes this eoled a cluster coordinator:
	// /v1/sweep shards across its workers and /v1/cluster/workers is
	// routed.
	coord *cluster.Coordinator
	// logger receives the structured request log (one Info record per
	// request, carrying the request ID). nil discards.
	logger *slog.Logger
	// tracer, when non-nil, records per-phase spans for every request
	// into a bounded ring served on /v1/debug/traces. nil disables
	// tracing; the debug endpoints then answer with an explanatory
	// error instead of vanishing.
	tracer *obs.Tracer
	// slowRequest, when positive, escalates any request whose root span
	// outlives it to a WARN record carrying the trace ID and its
	// slowest child spans.
	slowRequest time.Duration
}

// server wires the batch simulation service to the HTTP API. All
// handlers speak JSON and rely only on net/http.
type server struct {
	svc   *simsvc.Service
	opts  serverOptions
	start time.Time
	// routes maps route path -> its request record; built once in
	// newServer, read-only afterwards.
	routes map[string]*routeStats
	// queueWait is eole_queue_wait_seconds, fed from the service's
	// queue.wait spans.
	queueWait *obs.Histogram
	log       *slog.Logger
}

func newServer(svc *simsvc.Service, opts serverOptions) http.Handler {
	logger := opts.logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := &server{
		svc:       svc,
		opts:      opts,
		start:     time.Now(),
		routes:    make(map[string]*routeStats),
		queueWait: obs.NewHistogram(queueWaitBuckets),
		log:       logger,
	}
	opts.tracer.OnSpanEnd(func(d obs.SpanData) {
		if d.Name == "queue.wait" {
			s.queueWait.Observe(d.Duration().Seconds())
		}
	})
	mux := http.NewServeMux()
	// route registers a handler wrapped with its path's request record
	// (surfaced in /v1/stats under "endpoints" and on /metrics), keyed
	// by the pattern's path component — never the raw URL path, whose
	// unbounded values would explode label cardinality.
	route := func(pattern string, h http.HandlerFunc) {
		parts := strings.Fields(pattern)
		path := parts[len(parts)-1]
		rs := s.routes[path]
		if rs == nil {
			rs = newRouteStats()
			s.routes[path] = rs
		}
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			rs.requests.Add(1)
			cw := &countingWriter{ResponseWriter: w, status: http.StatusOK}
			t0 := time.Now()
			h(cw, r)
			rs.done(cw.status, time.Since(t0))
			if cw.failed != nil {
				s.log.Debug("reply_write_failed", "path", path, "status", cw.status,
					"request_id", obs.RequestID(r.Context()), "error", cw.failed.Error())
			}
		})
	}
	route("POST /v1/simulate", s.handleSimulate)
	route("POST /v1/sweep", s.handleSweep)
	route("GET /v1/configs", s.handleConfigs)
	route("GET /v1/workloads", s.handleWorkloads)
	route("GET /v1/traces", s.handleTraces)
	route("GET /v1/debug/traces", s.handleDebugTraces)
	route("GET /v1/debug/traces/{id}", s.handleDebugTrace)
	route("GET /v1/stats", s.handleStats)
	route("GET /v1/healthz", s.handleHealthz)
	route("GET /v1/artifacts/{kind}/{key}", s.handleArtifactGet)
	route("PUT /v1/artifacts/{kind}/{key}", s.handleArtifactPut)
	if opts.coord != nil {
		// The sweep route under its older name, which some clients post to.
		route("POST /v1/cluster/sweep", s.handleSweep)
		route("GET /v1/cluster/workers", s.handleClusterWorkers)
	}
	// /metrics bypasses route(): scrapes should not inflate the request
	// accounting they report.
	mux.Handle("GET /metrics", obs.Handler(s.writeMetrics))
	// The access-log middleware wraps the whole mux: it assigns (or
	// adopts) the request ID, stores it in the context for handlers and
	// the cluster dispatcher, echoes it on the response, emits one
	// structured record per request, and — with a tracer — opens the
	// root http.request span each downstream span parents under.
	return obs.AccessLog(logger, obs.AccessLogOptions{
		Tracer:      opts.tracer,
		SlowRequest: opts.slowRequest,
	}, mux)
}

// countingWriter records the response status for the route record,
// and the first error that kept a handler from writing its reply (see
// replyFailed) for the route wrapper to log.
type countingWriter struct {
	http.ResponseWriter
	status int
	failed error
}

func (w *countingWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// admit applies queue-depth backpressure to a request for the cells
// with these content addresses. It reports whether the request may be
// submitted; when not, it has answered 429 with a Retry-After hint,
// which the cluster coordinator treats as "rest this worker" (requeue
// after the hint), not worker failure. With no bound set or an idle
// queue everything is admitted: most cells of a typical sweep are cache
// hits or coalesce and never queue, so rejecting by raw cell count
// would throttle warm sweeps that cost nothing. Under backlog only the
// cells that would take a queue slot count — cached and in-flight cells
// are served for free and duplicates within the request share one slot
// — so warm and duplicate traffic keeps flowing through a saturated
// worker, and the request is refused if admitting those would push the
// queue past the bound.
func (s *server) admit(w http.ResponseWriter, keys []simsvc.Key) bool {
	depth := s.svc.QueueLen()
	if s.opts.maxQueue <= 0 || depth == 0 {
		return true
	}
	cold := 0
	seen := make(map[simsvc.Key]bool, len(keys))
	for _, k := range keys {
		if !seen[k] {
			seen[k] = true
			if !s.svc.FreeToServeKey(k) {
				cold++
			}
		}
	}
	if cold == 0 || depth+cold <= s.opts.maxQueue {
		return true
	}
	w.Header().Set("Retry-After", "1")
	writeJSON(w, http.StatusTooManyRequests, errorResponse{
		Error: fmt.Sprintf("simulation queue is %d deep (limit %d, %d cells asked); retry later", depth, s.opts.maxQueue, cold),
	})
	return false
}

// configRef is the wire form of one configuration: either a named
// configuration ("EOLE_4_64") or an inline Config object. Inline
// configs are first-class — they are validated, labeled by
// Config.Label (the Name field if set, else a fingerprint-derived
// "custom-…" label) and cached by fingerprint, so an inline config
// field-identical to a named one shares its cache entry.
type configRef struct {
	name   string
	inline *eole.Config
}

// namedRef references a configuration by name; inlineRef embeds a
// config object.
func namedRef(name string) configRef      { return configRef{name: name} }
func inlineRef(cfg eole.Config) configRef { return configRef{inline: &cfg} }

// MarshalJSON is the inverse of UnmarshalJSON (a name encodes as a
// string, an inline config as an object), so request types containing
// configRef round-trip — clients can build them with this package's
// types in tests.
func (c configRef) MarshalJSON() ([]byte, error) {
	if c.inline != nil {
		return json.Marshal(c.inline)
	}
	return json.Marshal(c.name)
}

func (c *configRef) UnmarshalJSON(b []byte) error {
	b = bytes.TrimSpace(b)
	if len(b) > 0 && b[0] == '"' {
		return json.Unmarshal(b, &c.name)
	}
	if string(b) == "null" {
		return nil // absent, as for any optional member
	}
	// Strict decode: the documented workflow is "dump a config,
	// hand-edit, post" — a misspelled field name must be an error, not
	// a silently different machine.
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var cfg eole.Config
	if err := dec.Decode(&cfg); err != nil {
		return fmt.Errorf("inline config: %w", err)
	}
	c.inline = &cfg
	return nil
}

// resolve returns the referenced configuration, normalized (LE width
// defaulting, so an inline config matches the named machine with the
// same fields) and validated.
func (c configRef) resolve() (eole.Config, error) {
	switch {
	case c.inline != nil:
		cfg := c.inline.Normalized()
		if err := cfg.Validate(); err != nil {
			return eole.Config{}, err
		}
		return cfg, nil
	case c.name != "":
		return eole.NamedConfig(c.name)
	}
	return eole.Config{}, errors.New("request names no config (use a config name or an inline config object)")
}

// wireRequest is the body of /v1/simulate (the simulate form) and
// /v1/sweep (the sweep form). The simulate form names one cell:
// Config is a named configuration or an inline config object. The
// sweep form asks for a (configs × workloads) grid: Configs mixes named
// and inline configs, Grid additionally cartesian-expands design-space
// axes ({"option": "PRFBanks", "values": [2,4,8]}) from a base config;
// empty Configs and no Grid means "all named configs", empty Workloads
// "all benchmarks".
//
// Warmup/Measure default to the server's run lengths when zero.
// Sampling, when present, runs every cell sampled: warmup becomes
// functional warming, measure the total detailed budget across the
// spec's windows, and the reports carry "ipc_ci" (the 95% confidence
// half-width) plus "sampled" and "sample_windows". Sampled and full
// runs never share cache entries.
type wireRequest struct {
	// Simulate form.
	Config   configRef `json:"config,omitzero"`
	Workload string    `json:"workload,omitempty"`
	// Sweep form.
	Configs   []configRef `json:"configs,omitempty"`
	Grid      *eole.Grid  `json:"grid,omitempty"`
	Workloads []string    `json:"workloads,omitempty"`
	// Shared.
	Warmup   uint64             `json:"warmup,omitempty"`
	Measure  uint64             `json:"measure,omitempty"`
	Sampling *eole.SamplingSpec `json:"sampling,omitempty"`
	// Relayed is simsvc.Request.Relayed for every cell: the sender
	// keeps the result tier itself (a coordinator does), so results
	// stay off this node's artifact peer.
	Relayed bool `json:"relayed,omitempty"`
}

// simulateField and sweepField name the first field of that form the
// body sets, "" when it sets none.
func (r *wireRequest) simulateField() string {
	switch {
	case r.Config != (configRef{}):
		return "config"
	case r.Workload != "":
		return "workload"
	}
	return ""
}

func (r *wireRequest) sweepField() string {
	switch {
	case len(r.Configs) > 0:
		return "configs"
	case r.Grid != nil:
		return "grid"
	case len(r.Workloads) > 0:
		return "workloads"
	}
	return ""
}

// workloads returns the sweep form's workload list as requested, or
// every benchmark when it names none.
func (r *wireRequest) workloads() []string {
	if len(r.Workloads) == 0 {
		return eole.WorkloadNames()
	}
	return r.Workloads
}

// The two request forms; each endpoint accepts one (see resolve).
const (
	formSimulate = iota
	formSweep
)

// resolve validates a request body in the endpoint's form and expands
// it to its cell list: one cell for the simulate form, the grid for
// the sweep form. The other form's fields are unknown to the endpoint
// and are refused in the strict decoder's words. Every endpoint
// resolves through here, so they cannot drift on what a request means.
func (s *server) resolve(req wireRequest, form int) ([]simsvc.Request, error) {
	if form == formSimulate {
		if f := req.sweepField(); f != "" {
			return nil, fmt.Errorf("bad request body: json: unknown field %q", f)
		}
		cell, err := s.resolveCell(req)
		return []simsvc.Request{cell}, err
	}
	if f := req.simulateField(); f != "" {
		return nil, fmt.Errorf("bad request body: json: unknown field %q", f)
	}
	return s.resolveGrid(req)
}

type errorResponse struct {
	Error string `json:"error"`
}

// decodeStrict decodes a size-capped request body, rejecting unknown
// fields: a misspelled field in a hand-written request must be an
// error, not a silently different simulation.
func decodeStrict(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func (s *server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req wireRequest
	if err := decodeStrict(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	reqs, err := s.resolve(req, formSimulate)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	sreq := reqs[0]
	// The simulator is deterministic, so the entity tag depends only on
	// the request's content address: a client revalidating a cached 200
	// with If-None-Match is answered 304 before any simulation work —
	// even before the backpressure gate, since a 304 costs nothing.
	key, label := simsvc.KeyOf(sreq), sreq.Config.Label()
	etag := resultETag(key, label)
	if s.answerNotModified(w, r, etag) {
		return
	}
	keys := []simsvc.Key{key}
	if !s.admit(w, keys) {
		return
	}
	var enc [1]simsvc.Encoded
	hits, err := s.svc.Probe(r.Context(), keys, enc[:])
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	if hits == 0 {
		job, err := s.svc.SubmitKeyed(r.Context(), sreq, key)
		if err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		if _, err := job.Wait(r.Context()); err != nil {
			writeError(w, statusFor(err), err)
			return
		}
		enc[0] = job.Encoded()
	}
	// The tag is attached only to a fully successful response — a
	// failure must never become revalidatable as if it had content.
	w.Header().Set("ETag", etag)
	writeBody(w, http.StatusOK, append(enc[0].AppendLabeled(nil, label), '\n'))
}

// resolveGrid expands a sweep-form request into its cell list: cell
// budget, config resolution/grid expansion, workload validation and
// run-length defaults.
func (s *server) resolveGrid(req wireRequest) ([]simsvc.Request, error) {
	req.Workloads = req.workloads()
	// Enforce the cell budget on cheap counts — list lengths and the
	// grid's axis product — before resolving or expanding a single
	// config, so an oversized request is rejected without burning CPU
	// on tens of thousands of name resolutions.
	total := len(req.Configs)
	if req.Grid != nil {
		gsize := req.Grid.Size() // saturates instead of wrapping
		if gsize > maxSweepCells || total > maxSweepCells-gsize {
			return nil, fmt.Errorf("sweep of %d configs plus a %d-cell grid exceeds the %d-config limit", total, gsize, maxSweepCells)
		}
		total += gsize
	}
	if total == 0 {
		total = len(eole.ConfigNames())
	}
	if cells := total * len(req.Workloads); cells > maxSweepCells {
		return nil, fmt.Errorf("sweep grid of %d cells exceeds limit %d", cells, maxSweepCells)
	}
	cfgs, err := s.sweepConfigs(req)
	if err != nil {
		return nil, err
	}
	for _, wl := range req.Workloads {
		if _, err := eole.WorkloadByName(wl); err != nil {
			return nil, err
		}
	}
	warmup, measure, err := s.runLengths(req.Warmup, req.Measure, req.Sampling)
	if err != nil {
		return nil, err
	}
	cells := simsvc.ApplySampling(simsvc.Cross(cfgs, req.Workloads, warmup, measure), req.Sampling)
	for i := range cells {
		cells[i].Relayed = req.Relayed
	}
	return cells, nil
}

func (s *server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req wireRequest
	if err := decodeStrict(w, r, &req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return
	}
	reqs, err := s.resolve(req, formSweep)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Each cell's content address and label are worked out once here;
	// the entity tag, admission, submission and the reply all use them.
	keys, labels := simsvc.Keys(reqs), cellLabels(reqs)
	// Like /v1/simulate, a sweep is revalidatable from its content
	// address alone: the grid's, which fixes every cell and its order.
	etag := sweepETag(keys, labels, req.workloads())
	if s.answerNotModified(w, r, etag) {
		return
	}
	if s.opts.coord != nil {
		s.shardSweep(w, r, reqs, keys, labels, etag)
		return
	}
	if !s.admit(w, keys) {
		return
	}
	// Cells the memory tier holds are stitched straight from the probe;
	// only the rest become jobs.
	encs := make([]simsvc.Encoded, len(reqs))
	if _, err := s.svc.Probe(r.Context(), keys, encs); err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	cells := make([]*simsvc.Job, len(reqs))
	for i := range reqs {
		if encs[i].Bytes() != nil {
			continue
		}
		if cells[i], err = s.svc.SubmitKeyed(r.Context(), reqs[i], keys[i]); err != nil {
			writeError(w, statusFor(err), err)
			return
		}
	}
	writeSweep(w, reqs, labels, etag, func(i int) (simsvc.Encoded, bool, error) {
		job := cells[i]
		if job == nil {
			return encs[i], true, nil
		}
		_, err := job.Wait(r.Context())
		return job.Encoded(), job.Cached(), err
	})
}

// shardSweep answers a coordinator's sweep: the cells go to its workers
// (the coordinator's own store answers the ones it holds) and the reply
// is stitched from the relayed bytes exactly as a single node stitches
// its own. There is no admission here: the workers' 429s are the
// backpressure.
func (s *server) shardSweep(w http.ResponseWriter, r *http.Request, reqs []simsvc.Request, keys []simsvc.Key, labels []string, etag string) {
	run, err := s.opts.coord.Start(r.Context(), reqs, keys)
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	select {
	case <-run.Done():
	case <-r.Context().Done():
		// The run fails its queued cells and cancels its dispatches on
		// the same context; report the disconnect/deadline.
		writeError(w, statusFor(r.Context().Err()), r.Context().Err())
		return
	}
	writeSweep(w, reqs, labels, etag, func(i int) (simsvc.Encoded, bool, error) {
		return run.Encoded(i), run.Cached(i), run.Err(i)
	})
}

// writeSweep stitches a /v1/sweep reply from each cell's outcome, in
// request order, and tags it only when every cell has a report: a
// partial response must not be revalidated into permanence by later
// If-None-Match requests.
func writeSweep(w http.ResponseWriter, reqs []simsvc.Request, labels []string, etag string, cell func(i int) (enc simsvc.Encoded, cached bool, err error)) {
	buf := bodyPool.Get().(*[]byte)
	defer putBody(buf)
	body := append((*buf)[:0], `{"results":[`...)
	complete := true
	for i := range reqs {
		enc, cached, err := cell(i)
		errMsg := ""
		if err != nil {
			errMsg, complete = err.Error(), false
		}
		if i > 0 {
			body = append(body, ',')
		}
		body = appendSweepCell(body, labels[i], reqs[i].Workload, cached, enc, errMsg)
	}
	body = append(body, "]}\n"...)
	if complete {
		w.Header().Set("ETag", etag)
	}
	*buf = body
	writeBody(w, http.StatusOK, body)
}

// cellLabels returns every request's config label, resolving each run
// of equal configs once (an anonymous config's label is derived from
// its fingerprint).
func cellLabels(reqs []simsvc.Request) []string {
	labels := make([]string, len(reqs))
	for i := range reqs {
		if i > 0 && reqs[i].Config == reqs[i-1].Config {
			labels[i] = labels[i-1]
		} else {
			labels[i] = reqs[i].Config.Label()
		}
	}
	return labels
}

// sweepConfigs expands a sweep request's config list: named and
// inline refs, plus the cartesian expansion of the grid axes. With
// neither refs nor a grid the sweep covers every named configuration.
func (s *server) sweepConfigs(req wireRequest) ([]eole.Config, error) {
	var cfgs []eole.Config
	for i, ref := range req.Configs {
		cfg, err := ref.resolve()
		if err != nil {
			return nil, fmt.Errorf("configs[%d]: %w", i, err)
		}
		cfgs = append(cfgs, cfg)
	}
	if req.Grid != nil {
		// Check the cell budget before expanding: Size is O(axes)
		// while Configs allocates every cell.
		if n := req.Grid.Size(); n > maxSweepCells {
			return nil, fmt.Errorf("grid expands to %d configs, exceeding limit %d", n, maxSweepCells)
		}
		gcfgs, err := req.Grid.Configs()
		if err != nil {
			return nil, err
		}
		cfgs = append(cfgs, gcfgs...)
	}
	if len(cfgs) > 0 {
		return cfgs, nil
	}
	names := eole.ConfigNames()
	cfgs = make([]eole.Config, len(names))
	for i, name := range names {
		cfg, err := eole.NamedConfig(name)
		if err != nil {
			return nil, err
		}
		cfgs[i] = cfg
	}
	return cfgs, nil
}

func (s *server) handleConfigs(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]string{"configs": eole.ConfigNames()})
}

type workloadInfo struct {
	Short       string  `json:"short"`
	Name        string  `json:"name"`
	PaperIPC    float64 `json:"paper_ipc"`
	Description string  `json:"description"`
}

func (s *server) handleWorkloads(w http.ResponseWriter, _ *http.Request) {
	// The Table 3 suite, then the long-* phased family (requestable
	// by name but excluded from empty-Workloads sweep defaults).
	all := append(eole.Workloads(), eole.LongWorkloads()...)
	infos := make([]workloadInfo, len(all))
	for i, wl := range all {
		infos[i] = workloadInfo{
			Short:       wl.Short,
			Name:        wl.Name,
			PaperIPC:    wl.PaperIPC,
			Description: wl.Description,
		}
	}
	writeJSON(w, http.StatusOK, map[string][]workloadInfo{"workloads": infos})
}

// tracesResponse lists the recorded µ-op traces the service replays
// for sweep acceleration.
type tracesResponse struct {
	Traces []simsvc.TraceInfo `json:"traces"`
}

func (s *server) handleTraces(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, tracesResponse{Traces: s.svc.Traces()})
}

// statsResponse is /v1/stats: the embedded service counters (flattened
// into the top level, so pre-cluster clients keep decoding it as plain
// simsvc.Stats) plus server identity and the per-endpoint counters the
// cluster coordinator uses to attribute load per worker.
type statsResponse struct {
	simsvc.Stats
	Version  string `json:"version,omitempty"`
	UptimeNS int64  `json:"uptime_ns"`
	QueueLen int    `json:"queue_len"`
	// Artifacts is the artifact store's (tier × kind) accounting
	// matrix.
	Artifacts []artifact.TierStats             `json:"artifacts"`
	Endpoints map[string]cluster.EndpointStats `json:"endpoints"`
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	eps := make(map[string]cluster.EndpointStats, len(s.routes))
	for path, rs := range s.routes {
		_, errors := rs.answered()
		eps[path] = cluster.EndpointStats{Requests: rs.requests.Load(), Errors: errors}
	}
	resp := statsResponse{
		Stats:     s.svc.Stats(),
		Version:   s.opts.version,
		UptimeNS:  int64(time.Since(s.start)),
		QueueLen:  s.svc.QueueLen(),
		Artifacts: s.svc.Artifacts().Stats(),
		Endpoints: eps,
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleHealthz is the cheap liveness probe: no simulation state is
// touched, so it answers even when every worker is busy. The cluster
// prober keys its circuit breaker on it; load balancers can too.
func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, cluster.Health{
		Status:      "ok",
		Version:     s.opts.version,
		UptimeNS:    int64(time.Since(s.start)),
		Parallelism: s.svc.Parallelism(),
		QueueLen:    s.svc.QueueLen(),
		Coordinator: s.opts.coord != nil,
	})
}

// sampledStreamFactor scales the maxUops ceiling for a sampled
// request's total stream consumption (warmup + every window's skip,
// warm and measure phases): fast-forwarded µ-ops cost roughly an
// order of magnitude less than detailed ones, so a sampled request
// may walk a stream this many times longer than a full run's ceiling
// before it threatens the worker pool.
const sampledStreamFactor = 16

// resolveCell resolves a simulate-form request: the config reference
// (named or inline), the workload, and the run lengths.
func (s *server) resolveCell(req wireRequest) (simsvc.Request, error) {
	cfg, err := req.Config.resolve()
	if err != nil {
		return simsvc.Request{}, err
	}
	if _, err := eole.WorkloadByName(req.Workload); err != nil {
		return simsvc.Request{}, err
	}
	warmup, measure, err := s.runLengths(req.Warmup, req.Measure, req.Sampling)
	if err != nil {
		return simsvc.Request{}, err
	}
	return simsvc.Request{Config: cfg, Workload: req.Workload, Warmup: warmup, Measure: measure, Sampling: req.Sampling, Relayed: req.Relayed}, nil
}

// runLengths applies the server defaults and the per-request ceiling;
// with a sampling spec it also validates the spec and bounds the
// total stream the schedule would consume.
func (s *server) runLengths(warmup, measure uint64, sampling *eole.SamplingSpec) (uint64, uint64, error) {
	if warmup == 0 {
		warmup = s.opts.defaultWarmup
	}
	if measure == 0 {
		measure = s.opts.defaultMeasure
	}
	// Overflow-safe ceiling check: warmup+measure can wrap uint64.
	if s.opts.maxUops > 0 && (warmup > s.opts.maxUops || measure > s.opts.maxUops-warmup) {
		return 0, 0, fmt.Errorf("run length %d+%d µ-ops exceeds server limit %d", warmup, measure, s.opts.maxUops)
	}
	if sampling != nil {
		// Plan both validates the spec and rejects schedules that do
		// not resolve against this measure budget (e.g. more windows
		// than measured µ-ops) with an error naming the real problem.
		plan, err := sampling.Plan(measure)
		if err != nil {
			return 0, 0, err
		}
		if s.opts.maxUops > 0 {
			// Detailed (cycle-accurate) work is the expensive part,
			// and an explicit per-window spec Measure can exceed the
			// request-level budget checked above — hold the
			// schedule's detailed total to the same maxUops ceiling
			// a full run gets.
			perWindow := plan.Measure + plan.DetailWarmup
			if detailed := perWindow * uint64(plan.Windows); perWindow != 0 && (detailed/perWindow != uint64(plan.Windows) || detailed > s.opts.maxUops) {
				return 0, 0, fmt.Errorf("sampled schedule simulates %d × %d detailed µ-ops, exceeding server limit %d",
					plan.Windows, perWindow, s.opts.maxUops)
			}
			budget := s.opts.maxUops * sampledStreamFactor
			if budget/sampledStreamFactor != s.opts.maxUops { // overflowed
				budget = 1<<64 - 1
			}
			if need := sampling.StreamNeed(warmup, measure); need > budget {
				return 0, 0, fmt.Errorf("sampled schedule consumes %d stream µ-ops, exceeding the server limit %d (%d × %d)",
					need, budget, s.opts.maxUops, sampledStreamFactor)
			}
		}
	}
	return warmup, measure, nil
}

// statusFor maps service errors to HTTP statuses: a closed service or
// coordinator is shutting down (503), a canceled request is the
// client's doing (499 has no stdlib constant; 400 serves), anything
// else is a simulation failure (500).
func statusFor(err error) int {
	switch {
	case errors.Is(err, simsvc.ErrClosed), errors.Is(err, cluster.ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

// writeJSON encodes, indented, the replies that carry no report
// (configs, stats, cluster workers, errors); every reply
// with a report in it is stitched from stored bytes instead (stitch.go).
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		replyFailed(w, err)
	}
}

// replyFailed notes that a reply could not be encoded or written. The
// status line is already out, so all that is left is to say so: the
// route wrapper logs it at debug with the request ID.
func replyFailed(w http.ResponseWriter, err error) {
	if cw, ok := w.(*countingWriter); ok && cw.failed == nil {
		cw.failed = err
	}
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}
