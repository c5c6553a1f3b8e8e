// Package jobs is the asynchronous job layer over the batch
// simulation service: a registry of long-running sweep/simulate jobs
// that a client creates with one short HTTP request and then observes
// — by polling a status snapshot, or by attaching to an append-only
// per-cell event log that replays everything already completed and
// streams the rest live.
//
// The design goal is that no HTTP request ever has to stay open for
// the lifetime of a simulation. A Job owns its own context, detached
// from whatever request created it; cancellation is an explicit
// operation (Job.Cancel, eoled's DELETE /v1/jobs/{id}) that feeds the
// existing simsvc context-cancellation path, so a canceled job's
// queued cells are dropped and its running simulations are abandoned
// at the core's next checkpoint (surfaced as sims_abandoned).
//
// Events are totally ordered per job: cell completions are appended
// in completion order with contiguous 1-based sequence numbers and
// the terminal event is always last. A consumer that reconnects asks
// for "everything after seq N" and misses nothing — EventsSince
// returns a snapshot plus a change signal, so the serving layer needs
// no per-subscriber buffers and a slow reader can never stall the
// job.
//
// The registry is bounded two ways: terminal jobs expire after a TTL
// (swept lazily on registry operations — no background goroutine),
// and a MaxJobs cap evicts the oldest terminal job on creation once
// the map is full. Active jobs are never evicted; when the cap is
// reached and every retained job is still active, Create fails with
// ErrBusy, which serving layers map to backpressure.
//
// Client is the other end of the same wire contract: the one HTTP
// client for eoled's job endpoints, shared by the cluster coordinator
// and eolectl.
package jobs

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"eole/internal/obs"
	"eole/internal/simsvc"
)

// ErrNotFound is returned for operations on an unknown (or already
// expired/evicted) job ID.
var ErrNotFound = errors.New("jobs: no such job")

// ErrBusy is returned by Create when the registry is at MaxJobs and
// every retained job is still active: there is nothing to evict, so
// the caller should shed load (eoled answers 429).
var ErrBusy = errors.New("jobs: registry full of active jobs")

// ErrClosed is returned by Create after Close has begun.
var ErrClosed = errors.New("jobs: registry closed")

// State is a job's lifecycle state on the wire.
type State string

const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether the state is final: no further events will
// be appended and the job is eligible for TTL expiry.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// Event types. Heartbeats are synthesized by streaming transports
// (they keep idle connections alive) and are never stored in the
// log, so they carry no sequence number and replay never sees them.
const (
	EventCell      = "cell"
	EventDone      = "done"
	EventHeartbeat = "heartbeat"
)

// CellEvent is the payload of one completed cell: its sweep position,
// identity, and exactly one of a report and Error. The report is held
// encoded at both ends of the wire: a registry's own events carry the
// service's stored bytes, which the serving layer writes as the
// "report" member under the cell's Config label, and Client hands a
// consumer that member as the bytes it arrived in — unverified; see
// simsvc.CanonicalReport.
type CellEvent struct {
	Index    int            `json:"index"`
	Config   string         `json:"config"`
	Workload string         `json:"workload"`
	Cached   bool           `json:"cached,omitempty"`
	Encoded  simsvc.Encoded `json:"report,omitzero"`
	Error    string         `json:"error,omitempty"`
}

// Event is one frame of a job's progress stream. Seq numbers are
// contiguous and 1-based per job; the terminal EventDone frame is
// always the last one appended and carries the final summary.
type Event struct {
	Seq       int        `json:"seq,omitempty"`
	Type      string     `json:"type"`
	Job       string     `json:"job,omitempty"`
	RequestID string     `json:"request_id,omitempty"`
	Cell      *CellEvent `json:"cell,omitempty"`

	// Terminal summary (EventDone only).
	State     State `json:"state,omitempty"`
	Completed int   `json:"completed,omitempty"`
	Failed    int   `json:"failed,omitempty"`
	Total     int   `json:"total,omitempty"`
}

// CellStatus is one cell's place in a job status snapshot.
type CellStatus struct {
	Config   string `json:"config"`
	Workload string `json:"workload"`
	Done     bool   `json:"done"`
	Cached   bool   `json:"cached,omitempty"`
	Error    string `json:"error,omitempty"`
}

// Status is a point-in-time snapshot of one job, as served by
// GET /v1/jobs/{id} (with Cells) and the /v1/jobs list (without).
type Status struct {
	ID        string `json:"id"`
	State     State  `json:"state"`
	RequestID string `json:"request_id,omitempty"`
	// CreatedAtUnixMS/FinishedAtUnixMS are wall-clock milliseconds:
	// integral on the wire so list output is stable to render.
	CreatedAtUnixMS  int64        `json:"created_at_unix_ms"`
	FinishedAtUnixMS int64        `json:"finished_at_unix_ms,omitempty"`
	CellsTotal       int          `json:"cells_total"`
	CellsCompleted   int          `json:"cells_completed"`
	CellsFailed      int          `json:"cells_failed"`
	LastSeq          int          `json:"last_seq"`
	Cells            []CellStatus `json:"cells,omitempty"`
}

// Options configures a Registry. The zero value is usable.
type Options struct {
	// TTL is how long a terminal job is retained for late polls and
	// event replays before lazy expiry (default 15m).
	TTL time.Duration
	// MaxJobs bounds the number of retained jobs, active plus
	// terminal (default 512). At the bound, Create evicts the oldest
	// terminal job; with only active jobs retained it fails ErrBusy.
	MaxJobs int
	// Logger receives job lifecycle events (nil = discard).
	Logger *slog.Logger
	// Tracer, when set, records one job.run span per job (creation →
	// terminal state) and one job.cell span per cell (submit → result),
	// parented under the creating request's span so an async job's
	// whole execution lands in the trace of the POST that started it.
	Tracer *obs.Tracer
}

// Stats is the registry's accounting snapshot, served inside
// /v1/stats and mirrored into /metrics.
type Stats struct {
	Active   int    `json:"active"`
	Retained int    `json:"retained"`
	Created  uint64 `json:"created"`
	Canceled uint64 `json:"canceled"`
	Evicted  uint64 `json:"evicted"`
	Expired  uint64 `json:"expired"`
	Events   uint64 `json:"events_emitted"`
	Streams  int64  `json:"streams_attached"`
}

// Registry tracks every job on one service. Create with New; Close
// cancels active jobs and waits for their runners.
type Registry struct {
	svc  *simsvc.Service
	opts Options
	log  *slog.Logger

	mu     sync.Mutex
	jobs   map[string]*Job
	closed bool
	wg     sync.WaitGroup // one hold per running job runner

	created  atomic.Uint64
	canceled atomic.Uint64
	evicted  atomic.Uint64
	expired  atomic.Uint64
	events   atomic.Uint64
	streams  atomic.Int64
}

// New builds a registry over the service.
func New(svc *simsvc.Service, opts Options) *Registry {
	if opts.TTL <= 0 {
		opts.TTL = 15 * time.Minute
	}
	if opts.MaxJobs <= 0 {
		opts.MaxJobs = 512
	}
	if opts.Logger == nil {
		opts.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return &Registry{svc: svc, opts: opts, log: opts.Logger, jobs: make(map[string]*Job)}
}

// Job is one asynchronous sweep (a single simulation is a one-cell
// sweep). All mutable state is guarded by mu; events is append-only
// and seq numbers are its 1-based indexes.
type Job struct {
	id        string
	reqs      []simsvc.Request
	requestID string
	createdAt time.Time
	cancel    context.CancelFunc

	mu        sync.Mutex
	state     State
	canceled  bool
	cells     []CellStatus
	completed int
	failed    int
	events    []Event
	changed   chan struct{} // closed and replaced on every append
	finished  time.Time
	done      chan struct{}
}

// ID returns the job's registry key.
func (j *Job) ID() string { return j.id }

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Cancel cancels the job's context: queued cells are dropped and
// running simulations whose only waiters belong to this job are
// abandoned. Idempotent; a no-op on terminal jobs.
func (j *Job) Cancel() {
	j.mu.Lock()
	already := j.canceled || j.state.Terminal()
	j.canceled = true
	j.mu.Unlock()
	if !already {
		j.cancel()
	}
}

// Status snapshots the job; withCells includes the per-cell detail.
func (j *Job) Status(withCells bool) Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{
		ID:              j.id,
		State:           j.state,
		RequestID:       j.requestID,
		CreatedAtUnixMS: j.createdAt.UnixMilli(),
		CellsTotal:      len(j.cells),
		CellsCompleted:  j.completed,
		CellsFailed:     j.failed,
		LastSeq:         len(j.events),
	}
	if !j.finished.IsZero() {
		st.FinishedAtUnixMS = j.finished.UnixMilli()
	}
	if withCells {
		st.Cells = append([]CellStatus(nil), j.cells...)
	}
	return st
}

// EventsSince returns the events with seq > after (a snapshot safe to
// read without locks — the log is append-only) plus a channel that is
// closed the next time an event is appended. The idiom for a streamer:
//
//	for {
//		evs, changed := job.EventsSince(seen)
//		...emit evs, stop after the EventDone frame...
//		select { case <-changed: case <-ctx.Done(): return }
//	}
//
// A terminal job's log ends with EventDone, so a late attach replays
// everything and terminates without ever blocking.
func (j *Job) EventsSince(after int) ([]Event, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if after < 0 {
		after = 0
	}
	if after > len(j.events) {
		after = len(j.events)
	}
	return j.events[after:len(j.events):len(j.events)], j.changed
}

// appendLocked appends one event (stamping seq/job/request ID) and
// wakes every EventsSince waiter. Requires j.mu.
func (j *Job) appendLocked(g *Registry, ev Event) {
	ev.Seq = len(j.events) + 1
	ev.Job = j.id
	ev.RequestID = j.requestID
	j.events = append(j.events, ev)
	g.events.Add(1)
	close(j.changed)
	j.changed = make(chan struct{})
}

// Create registers a new job over the request list and starts its
// runner. The job's lifetime is detached from ctx — only the request
// ID is carried over, so the job's simulations trace back to the
// request that created it. Cancellation is explicit via Job.Cancel.
func (g *Registry) Create(ctx context.Context, reqs []simsvc.Request) (*Job, error) {
	if len(reqs) == 0 {
		return nil, errors.New("jobs: empty request list")
	}
	now := time.Now()
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil, ErrClosed
	}
	g.expireLocked(now)
	if len(g.jobs) >= g.opts.MaxJobs {
		if !g.evictOldestTerminalLocked() {
			g.mu.Unlock()
			return nil, ErrBusy
		}
	}
	id := obs.NewRequestID()
	for g.jobs[id] != nil { // collision: redraw
		id = obs.NewRequestID()
	}
	jctx, cancel := context.WithCancel(context.Background())
	rid := obs.RequestID(ctx)
	if rid != "" {
		jctx = obs.WithRequestID(jctx, rid)
	}
	// Like the request ID, the creating request's span is carried into
	// the detached job context — the job's spans join that trace, while
	// its lifetime stays independent of the creating request.
	if sp := obs.SpanFrom(ctx); sp != nil {
		jctx = obs.ContextWithSpan(jctx, sp)
	}
	j := &Job{
		id:        id,
		reqs:      reqs,
		requestID: rid,
		createdAt: now,
		cancel:    cancel,
		state:     StateQueued,
		cells:     make([]CellStatus, len(reqs)),
		changed:   make(chan struct{}),
		done:      make(chan struct{}),
	}
	for i, req := range reqs {
		j.cells[i] = CellStatus{Config: req.Config.Label(), Workload: req.Workload}
	}
	g.jobs[id] = j
	g.wg.Add(1)
	g.mu.Unlock()
	g.created.Add(1)
	g.log.Info("job_created", "job", id, "cells", len(reqs), "request_id", rid)
	go g.run(jctx, j)
	return j, nil
}

// Get returns a job by ID (false for unknown, expired or evicted).
func (g *Registry) Get(id string) (*Job, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.expireLocked(time.Now())
	j, ok := g.jobs[id]
	return j, ok
}

// Cancel cancels the job with the given ID, reporting whether it
// exists.
func (g *Registry) Cancel(id string) (*Job, bool) {
	j, ok := g.Get(id)
	if !ok {
		return nil, false
	}
	j.mu.Lock()
	effective := !j.canceled && !j.state.Terminal()
	j.mu.Unlock()
	if effective {
		g.canceled.Add(1)
		g.log.Info("job_canceled", "job", id, "request_id", j.requestID)
	}
	j.Cancel()
	return j, true
}

// List snapshots every retained job, oldest first (ties broken by ID
// so the order is stable).
func (g *Registry) List() []Status {
	g.mu.Lock()
	g.expireLocked(time.Now())
	jobs := make([]*Job, 0, len(g.jobs))
	for _, j := range g.jobs {
		jobs = append(jobs, j)
	}
	g.mu.Unlock()
	out := make([]Status, len(jobs))
	for i, j := range jobs {
		out[i] = j.Status(false)
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].CreatedAtUnixMS != out[b].CreatedAtUnixMS {
			return out[a].CreatedAtUnixMS < out[b].CreatedAtUnixMS
		}
		return out[a].ID < out[b].ID
	})
	return out
}

// Stats snapshots the registry counters.
func (g *Registry) Stats() Stats {
	g.mu.Lock()
	retained := len(g.jobs)
	active := 0
	for _, j := range g.jobs {
		if !j.Status(false).State.Terminal() {
			active++
		}
	}
	g.mu.Unlock()
	return Stats{
		Active:   active,
		Retained: retained,
		Created:  g.created.Load(),
		Canceled: g.canceled.Load(),
		Evicted:  g.evicted.Load(),
		Expired:  g.expired.Load(),
		Events:   g.events.Load(),
		Streams:  g.streams.Load(),
	}
}

// StreamAttached/StreamDetached account one live event-stream
// subscriber; serving layers call them around a streaming response so
// operators can see attached consumers in /metrics.
func (g *Registry) StreamAttached() { g.streams.Add(1) }
func (g *Registry) StreamDetached() { g.streams.Add(-1) }

// Close stops the registry: no new jobs, every active job is canceled,
// and Close blocks until their runners have resolved. Idempotent.
func (g *Registry) Close() {
	g.mu.Lock()
	g.closed = true
	jobs := make([]*Job, 0, len(g.jobs))
	for _, j := range g.jobs {
		jobs = append(jobs, j)
	}
	g.mu.Unlock()
	for _, j := range jobs {
		j.Cancel()
	}
	g.wg.Wait()
}

// expireLocked removes terminal jobs past their TTL. Requires g.mu.
func (g *Registry) expireLocked(now time.Time) {
	for id, j := range g.jobs {
		j.mu.Lock()
		gone := j.state.Terminal() && now.Sub(j.finished) > g.opts.TTL
		j.mu.Unlock()
		if gone {
			delete(g.jobs, id)
			g.expired.Add(1)
		}
	}
}

// evictOldestTerminalLocked removes the oldest-finished terminal job
// to make room, reporting whether one existed. Requires g.mu.
func (g *Registry) evictOldestTerminalLocked() bool {
	var victim string
	var oldest time.Time
	for id, j := range g.jobs {
		j.mu.Lock()
		terminal, fin := j.state.Terminal(), j.finished
		j.mu.Unlock()
		if terminal && (victim == "" || fin.Before(oldest)) {
			victim, oldest = id, fin
		}
	}
	if victim == "" {
		return false
	}
	delete(g.jobs, victim)
	g.evicted.Add(1)
	return true
}

// run is the job's runner: submit every cell, collect completions in
// completion order, seal the job with a terminal event. The runner is
// the only writer of job state after creation, so event ordering is
// total: cells first (as they finish), EventDone last.
func (g *Registry) run(ctx context.Context, j *Job) {
	defer g.wg.Done()
	ctx, jsp := g.opts.Tracer.StartSpan(ctx, "job.run")
	jsp.SetAttr("job", j.id)
	jsp.SetAttr("cells", strconv.Itoa(len(j.reqs)))
	j.mu.Lock()
	j.state = StateRunning
	j.mu.Unlock()
	g.log.Info("job_started", "job", j.id, "cells", len(j.reqs), "request_id", j.requestID)

	keys := simsvc.Keys(j.reqs)
	var wg sync.WaitGroup
	for i := range j.reqs {
		if ctx.Err() != nil {
			// Canceled mid-submission: remaining cells never enter the
			// service; they stay !Done and the terminal event reports
			// the cancel.
			break
		}
		cctx, csp := g.opts.Tracer.StartSpan(ctx, "job.cell")
		csp.SetAttr("config", j.reqs[i].Config.Label())
		csp.SetAttr("workload", j.reqs[i].Workload)
		sj, err := g.svc.SubmitKeyed(cctx, j.reqs[i], keys[i])
		if err != nil {
			csp.SetError(err)
			csp.End()
			g.finishCell(j, i, simsvc.Encoded{}, false, err)
			continue
		}
		wg.Add(1)
		go func(i int, sj *simsvc.Job, csp *obs.Span) {
			defer wg.Done()
			_, err := sj.Wait(ctx)
			csp.SetAttr("cached", strconv.FormatBool(sj.Cached()))
			csp.SetError(err)
			csp.End()
			g.finishCell(j, i, sj.Encoded(), sj.Cached(), err)
		}(i, sj, csp)
	}
	wg.Wait()

	j.mu.Lock()
	switch {
	case j.canceled || ctx.Err() != nil:
		j.state = StateCanceled
	case j.failed > 0:
		j.state = StateFailed
	default:
		j.state = StateDone
	}
	j.finished = time.Now()
	j.appendLocked(g, Event{
		Type:      EventDone,
		State:     j.state,
		Completed: j.completed,
		Failed:    j.failed,
		Total:     len(j.cells),
	})
	state, completed, failed := j.state, j.completed, j.failed
	j.mu.Unlock()
	jsp.SetAttr("state", string(state))
	jsp.End()
	close(j.done)
	g.log.Info("job_finished", "job", j.id, "state", string(state),
		"completed", completed, "failed", failed, "total", len(j.reqs),
		"request_id", j.requestID)
}

// finishCell records one cell outcome and appends its event. A
// cancellation-shaped error on a canceled job is the cancel itself,
// not a cell failure: the cell keeps its error for status polls but
// emits no event (the terminal frame covers it) and does not count
// toward CellsFailed.
func (g *Registry) finishCell(j *Job, i int, enc simsvc.Encoded, cached bool, err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	cell := &j.cells[i]
	cell.Done = err == nil
	cell.Cached = cached
	if err == nil {
		j.completed++
		j.appendLocked(g, Event{Type: EventCell, Cell: &CellEvent{
			Index:    i,
			Config:   cell.Config,
			Workload: cell.Workload,
			Cached:   cached,
			Encoded:  enc,
		}})
		return
	}
	cell.Error = err.Error()
	if j.canceled && isCancellation(err) {
		return
	}
	j.failed++
	j.appendLocked(g, Event{Type: EventCell, Cell: &CellEvent{
		Index:    i,
		Config:   cell.Config,
		Workload: cell.Workload,
		Error:    err.Error(),
	}})
}

// isCancellation classifies the error shapes the simsvc cancellation
// path produces for a dead job context.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, simsvc.ErrClosed)
}
