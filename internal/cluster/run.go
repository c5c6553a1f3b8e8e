package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"eole/internal/artifact"
	"eole/internal/jobs"
	"eole/internal/obs"
	"eole/internal/simsvc"
)

// cell is one unique simulation of a run: a representative request
// plus every sweep index that deduped onto its content address. name
// is key.String(), the result's artifact name in the coordinator's
// store.
type cell struct {
	key      simsvc.Key
	name     string
	req      simsvc.Request
	indexes  []int
	attempts int
	// tried records workers this cell has been dispatched to, so a
	// retry goes to one it has not visited yet while any is left
	// (guarded by Coordinator.mu).
	tried map[*worker]bool
	// lead marks the cell currently elected to record its workload's
	// trace (trace-lead gating; guarded by Coordinator.mu).
	lead bool
}

// Workload-lead states for trace-lead gating (Run.leads values).
const (
	leadNone     = iota // no cell of the workload dispatched yet
	leadInFlight        // the elected lead is on the wire; siblings hold
	leadDone            // a cell completed: the trace exists fleet-wide
)

// Run is one in-flight distributed sweep.
type Run struct {
	c   *Coordinator
	ctx context.Context

	done chan struct{}

	// Guarded by c.mu until done is closed, then immutable.
	queue    []*cell
	pending  int // cells not yet terminal
	inflight int // this run's dispatches currently on the wire
	// leads tracks per-workload trace-recording state (trace-lead
	// gating): while a workload's first cell is on the wire, its
	// siblings wait so the recorded trace is shared instead of being
	// re-interpreted on every worker at once.
	leads  map[string]int
	encs   []simsvc.Encoded // per sweep index, as simulated: relabeled on the way out
	errs   []error
	cached []bool
	// used records every worker this run dispatched to, for the
	// post-run trace splice (guarded by c.mu).
	used map[*worker]bool
}

// Start decomposes the sweep into deduplicated cells and begins
// dispatching them; keys[i] is reqs[i]'s content address
// (simsvc.Keys). Read each index with Encoded, Cached and Err.
func (c *Coordinator) Start(ctx context.Context, reqs []simsvc.Request, keys []simsvc.Key) (*Run, error) {
	if len(reqs) == 0 {
		return nil, errors.New("cluster: empty sweep")
	}
	if c.ctx.Err() != nil {
		return nil, ErrClosed
	}
	r := &Run{
		c:      c,
		ctx:    ctx,
		leads:  make(map[string]int),
		encs:   make([]simsvc.Encoded, len(reqs)),
		errs:   make([]error, len(reqs)),
		cached: make([]bool, len(reqs)),
		done:   make(chan struct{}),
		used:   make(map[*worker]bool),
	}
	byKey := make(map[simsvc.Key]*cell, len(reqs))
	for i, req := range reqs {
		k := keys[i]
		if cl, ok := byKey[k]; ok {
			cl.indexes = append(cl.indexes, i)
			continue
		}
		cl := &cell{key: k, req: req, indexes: []int{i}}
		byKey[k] = cl
		r.queue = append(r.queue, cl)
	}
	r.pending = len(r.queue)
	// The coordinator's own result tier first: a cell it holds needs no
	// worker. (r is not shared yet, so this needs no lock.)
	queue := r.queue[:0]
	for _, cl := range r.queue {
		cl.name = cl.key.String()
		if enc, ok := c.held(cl.name); ok {
			for _, i := range cl.indexes {
				r.cached[i] = true
			}
			r.finishCellLocked(cl, enc, nil)
		} else {
			queue = append(queue, cl)
		}
	}
	r.queue = queue
	// A canceled sweep context must wake the dispatch loop so it can
	// fail the still-queued cells (wake, not a bare Broadcast: see
	// Coordinator.wake).
	stop := context.AfterFunc(ctx, c.wake)
	go func() {
		defer stop()
		r.loop()
	}()
	return r, nil
}

// held looks a result up by artifact name in the coordinator's own
// store. Stored bytes pass the same gate a relayed report does, so a
// payload this build would not have written is a miss, not a reply.
func (c *Coordinator) held(name string) (simsvc.Encoded, bool) {
	b, err := c.opts.Store.GetLocal(artifact.KindResult, name)
	if err != nil {
		return simsvc.Encoded{}, false
	}
	enc, err := simsvc.CanonicalReport(b)
	return enc, err == nil
}

// Done is closed when every cell is terminal.
func (r *Run) Done() <-chan struct{} { return r.done }

// Cached reports whether sweep index i was answered from the
// coordinator's own store, with no dispatch, blocking until the run is
// done.
func (r *Run) Cached(i int) bool {
	<-r.done
	return r.cached[i]
}

// Err returns sweep index i's terminal error (nil when it has a
// report), blocking until the run is done.
func (r *Run) Err(i int) error {
	<-r.done
	return r.errs[i]
}

// Encoded returns sweep index i's report as it was simulated (zero for
// a failed cell), blocking until the run is done: the caller splices it
// under the label it serves (simsvc.Encoded.AppendLabeled).
func (r *Run) Encoded(i int) simsvc.Encoded {
	<-r.done
	return r.encs[i]
}

// loop is the run's dispatcher: it pairs queued cells with the least
// loaded dispatchable worker and blocks on the coordinator's condition
// variable whenever neither work nor capacity is available. It exits
// when every cell is terminal.
func (r *Run) loop() {
	c := r.c
	c.mu.Lock()
	for r.pending > 0 {
		if err := r.deadErr(); err != nil {
			// Fail everything still queued; in-flight dispatches resolve
			// through their own (now canceled) request contexts.
			r.failQueuedLocked(err)
			if r.pending == 0 {
				break
			}
			c.cond.Wait()
			continue
		}
		idx, w := r.nextLocked(time.Now())
		if w == nil {
			if c.allOpenLocked() && r.inflight == 0 {
				// Every circuit is open and nothing of ours is on the
				// wire: the cluster is gone, so fail fast rather than
				// park the sweep until a worker resurrects.
				r.failQueuedLocked(ErrNoWorkers)
				continue
			}
			// No capacity, every queued cell holding for a lead
			// recording, or retried cells waiting for a worker they
			// have not visited: a dispatch completion, throttle expiry,
			// circuit change or the run dying wakes us.
			c.cond.Wait()
			continue
		}
		cl := r.queue[idx]
		r.queue = append(r.queue[:idx], r.queue[idx+1:]...)
		if r.leads[cl.req.Workload] == leadNone {
			// First dispatch of this workload: elect the cell as its
			// trace-recording lead. Siblings queue behind it until the
			// lead resolves, then fan out against the shared trace.
			cl.lead = true
			r.leads[cl.req.Workload] = leadInFlight
		}
		cl.attempts++
		if cl.tried == nil {
			cl.tried = make(map[*worker]bool, len(c.workers))
		}
		cl.tried[w] = true
		r.used[w] = true
		w.inflight++
		r.inflight++
		w.dispatched.Add(1)
		go r.dispatch(cl, w)
	}
	// Every cell is terminal (all dispatch round trips resolved), so
	// the participating workers' spans are complete: splice them into
	// the coordinator's trace before sealing the run, outside the lock
	// — the fetches are network I/O. A caller woken by Done then finds
	// the cross-process trace already assembled.
	used := make([]*worker, 0, len(r.used))
	for w := range r.used {
		used = append(used, w)
	}
	c.mu.Unlock()
	r.spliceWorkerTraces(used)
	close(r.done)
}

// nextLocked pairs the first dispatchable queued cell with a worker:
// queue order, skipping cells whose workload is being lead-recorded
// (trace gating) and retried cells whose only free workers are ones
// they already failed on. Requires c.mu.
func (r *Run) nextLocked(now time.Time) (int, *worker) {
	if r.c.pickWorkerLocked(nil, now) == nil {
		return -1, nil // no capacity anywhere: nothing to scan for
	}
	for i, cl := range r.queue {
		if r.leads[cl.req.Workload] == leadInFlight {
			continue
		}
		if w := r.c.pickWorkerLocked(cl.tried, now); w != nil {
			return i, w
		}
	}
	return -1, nil
}

// spliceWorkerTraces fetches each participating worker's view of the
// sweep's trace (GET /v1/debug/traces/{id}) and ingests the spans into
// the coordinator's tracer, span-ID-deduplicated — one waterfall for
// the whole fleet. Best-effort on a short detached context: a worker
// that died or predates the endpoint just contributes no spans.
func (r *Run) spliceWorkerTraces(used []*worker) {
	tracer := r.c.opts.Tracer
	sp := obs.SpanFrom(r.ctx)
	if tracer == nil || sp == nil || len(used) == 0 {
		return
	}
	traceID := sp.Context().TraceID
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	for _, w := range used {
		var tr obs.Trace
		_, err := w.api.GetJSON(ctx, "/v1/debug/traces/"+traceID, &tr)
		if err == nil && tr.TraceID != traceID {
			err = errors.New("bad trace body")
		}
		if err != nil {
			r.c.log.Debug("trace_splice_failed", "worker", w.url, "trace_id", traceID, "error", err.Error())
			continue
		}
		tracer.Ingest(tr.Spans, tr.RequestID)
		r.c.log.Debug("trace_spliced", "worker", w.url, "trace_id", traceID, "spans", len(tr.Spans))
	}
}

// deadErr reports why the run can no longer make progress (sweep
// context canceled or coordinator closed), or nil.
func (r *Run) deadErr() error {
	if err := r.ctx.Err(); err != nil {
		return err
	}
	if r.c.ctx.Err() != nil {
		return ErrClosed
	}
	return nil
}

// failQueuedLocked fails every not-yet-dispatched cell. Requires c.mu.
func (r *Run) failQueuedLocked(err error) {
	for _, cl := range r.queue {
		r.finishCellLocked(cl, simsvc.Encoded{}, err)
	}
	r.queue = nil
}

// finishCellLocked records a cell's terminal result for every sweep
// index it covers. Deduped cells may carry different display names over
// the same fingerprint; they share the bytes and are labeled on the way
// out. Requires c.mu.
func (r *Run) finishCellLocked(cl *cell, enc simsvc.Encoded, err error) {
	for _, i := range cl.indexes {
		r.encs[i], r.errs[i] = enc, err
	}
	r.pending--
}

// releaseLeadLocked resolves a workload's trace-recording election
// when its lead cell comes off the wire. A successful lead proves the
// worker holds (and, with an artifact peer, has shared) the workload's
// trace, so siblings fan out; any other outcome re-opens the election
// — the next cell of the workload to dispatch becomes the new lead.
// Requires c.mu. The caller's Broadcast wakes the holding siblings.
func (r *Run) releaseLeadLocked(cl *cell, recorded bool) {
	if !cl.lead {
		return
	}
	cl.lead = false
	if recorded {
		r.leads[cl.req.Workload] = leadDone
	} else {
		r.leads[cl.req.Workload] = leadNone
	}
}

// dispatchOutcome classifies one dispatch round trip.
type dispatchOutcome int

const (
	outcomeOK dispatchOutcome = iota
	// outcomePermanent: the request cannot be built at all (local
	// encode failure); no dispatch anywhere could succeed.
	outcomePermanent
	// outcomeRetry: transient or worker-local failure; requeue unless
	// the attempt budget is spent.
	outcomeRetry
	// outcomeThrottle: 429 backpressure; requeue without consuming an
	// attempt and rest the worker for the Retry-After hint.
	outcomeThrottle
)

// outcomeName labels a dispatch outcome for span attributes.
func outcomeName(o dispatchOutcome) string {
	switch o {
	case outcomeOK:
		return "ok"
	case outcomePermanent:
		return "permanent"
	case outcomeRetry:
		return "retry"
	case outcomeThrottle:
		return "throttle"
	}
	return "unknown"
}

// dispatch posts one cell to one worker and resolves the outcome under
// the coordinator lock.
func (r *Run) dispatch(cl *cell, w *worker) {
	r.c.log.Debug("cell_dispatch", "worker", w.url, "key", cl.name,
		"config", cl.req.Config.Label(), "workload", cl.req.Workload,
		"attempt", cl.attempts, "request_id", obs.RequestID(r.ctx))
	// One span per attempt: a cell that is requeued (throttle, retry)
	// shows up as several dispatch spans with increasing attempt
	// numbers, so circuit waits and requeues are visible in the
	// waterfall. The span context rides the worker requests as a
	// traceparent header, parenting the worker-side spans here.
	dctx, dsp := r.c.opts.Tracer.StartSpan(r.ctx, "dispatch")
	dsp.SetAttr("worker", w.url)
	dsp.SetAttr("config", cl.req.Config.Label())
	dsp.SetAttr("workload", cl.req.Workload)
	dsp.SetAttr("attempt", strconv.Itoa(cl.attempts))
	enc, delay, outcome, workerFault, err := r.post(dctx, cl, w)
	dsp.SetAttr("outcome", outcomeName(outcome))
	if outcome != outcomeOK {
		dsp.SetError(err)
	}
	dsp.End()

	c := r.c
	c.mu.Lock()
	w.inflight--
	r.inflight--
	r.releaseLeadLocked(cl, outcome == outcomeOK)
	switch outcome {
	case outcomeOK:
		w.completed.Add(1)
		r.finishCellLocked(cl, enc, nil)
	case outcomePermanent:
		w.failed.Add(1)
		r.finishCellLocked(cl, simsvc.Encoded{}, err)
	case outcomeThrottle:
		w.throttled.Add(1)
		cl.attempts-- // backpressure is not a failed attempt
		w.throttledUntil = time.Now().Add(delay)
		r.queue = append(r.queue, cl)
		// The throttle expiry must wake the dispatch loop even if no
		// other event does (wake, not a bare Broadcast: the lock-free
		// form could slip between a loop's predicate check and its
		// Wait and be lost).
		time.AfterFunc(delay, c.wake)
	case outcomeRetry:
		if workerFault && r.deadErr() == nil {
			// Connection-level failures count toward the circuit like
			// failed probes; a live worker's clean 5xx answer does not —
			// and neither does our own dying run context, whose canceled
			// dispatches say nothing about worker health.
			c.noteFailureLocked(w, err)
		}
		switch {
		case r.deadErr() != nil:
			r.finishCellLocked(cl, simsvc.Encoded{}, r.deadErr())
		case cl.attempts >= c.opts.MaxAttempts:
			w.failed.Add(1)
			r.finishCellLocked(cl, simsvc.Encoded{},
				fmt.Errorf("cluster: cell failed after %d attempts: %w", cl.attempts, err))
		default:
			w.requeued.Add(1)
			r.queue = append(r.queue, cl)
		}
	}
	c.cond.Broadcast()
	c.mu.Unlock()
}

// post performs the round trip for one cell — one POST /v1/simulate,
// whose 200 body is the worker's report — and classifies what came
// back. Ending the request is all it takes to give the cell up (the
// sweep's cancellation, Close, DispatchTimeout): the dispatch is the
// cell's waiter on the worker, so its leaving abandons the simulation.
// A report is relayed as the bytes the worker sent, once they have
// passed the canonical-encoding gate — the one check an artifact
// upload passes too — and are kept in the coordinator's store.
func (r *Run) post(ctx context.Context, cl *cell, w *worker) (enc simsvc.Encoded, delay time.Duration, outcome dispatchOutcome, workerFault bool, err error) {
	req := cl.req
	// The result tier is the coordinator's: the worker answers from its
	// own tiers and pushes the result nowhere.
	req.Relayed = true
	body, err := json.Marshal(req)
	if err != nil {
		return enc, 0, outcomePermanent, false, fmt.Errorf("cluster: encode request: %w", err)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	defer context.AfterFunc(r.c.ctx, cancel)()
	if d := r.c.opts.DispatchTimeout; d > 0 {
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	reply, err := w.api.Post(ctx, "/v1/simulate", body)
	var refused *jobs.StatusError
	switch {
	case errors.As(err, &refused) && refused.Code == http.StatusTooManyRequests:
		return enc, retryAfter(refused.RetryAfter), outcomeThrottle, false, nil
	case err != nil:
		// Any well-formed refusal — 400, 404, a 500 from a failed
		// simulation, 503 — is retryable: a 400 may be one worker's
		// local policy (a stricter -max-uops than its peers), a 404 a
		// worker that does not serve the route, so the cell deserves a
		// try elsewhere before failing with the worker's message. It
		// carries no circuit penalty: an HTTP answer proves the worker
		// alive, and a cell-specific failure must not break every worker
		// it visits. Everything else (connection refused or reset, a
		// truncated body, our own deadline) is a worker fault unless the
		// run itself is dying, which the caller decides via deadErr.
		return enc, 0, outcomeRetry, refused == nil, fmt.Errorf("cluster: %s: %w", w.url, err)
	}
	// The worker is alive and answered; what it answered is checked like
	// any upload. A report that is not this build's encoding (another
	// version's worker, a corrupted one) is retried elsewhere with no
	// circuit penalty, and goes no further.
	if enc, err = relayedReply(reply); err != nil {
		return enc, 0, outcomeRetry, false, fmt.Errorf("cluster: %s: relayed result is %w", w.url, err)
	}
	_ = r.c.opts.Store.Put(artifact.KindResult, cl.name, enc.Bytes()) // best-effort, like a service's own spill
	return enc, 0, outcomeOK, false, nil
}

// relayedReply is the gate a worker's /v1/simulate body passes before
// the coordinator relays it: the report's stored bytes, spliced under
// the request's label and newline-terminated like every eoled body,
// must be exactly the canonical encoding of a report.
func relayedReply(body []byte) (simsvc.Encoded, error) {
	return simsvc.CanonicalReport(bytes.TrimSuffix(body, []byte("\n")))
}

// maxRetryAfter caps the worker-supplied Retry-After hint: the header
// is remote input, and honoring an absurd value would park the sweep
// on a throttled-but-closed circuit with no cell ever failing.
const maxRetryAfter = 30 * time.Second

// retryAfter parses the Retry-After seconds hint (default 500ms —
// short enough that a briefly saturated worker is retried promptly),
// clamped to maxRetryAfter. The clamp happens on the integer before
// the Duration multiply: a huge header value would otherwise overflow
// int64 into a negative delay and defeat the cap.
func retryAfter(header string) time.Duration {
	if header != "" {
		if secs, err := strconv.Atoi(header); err == nil && secs >= 0 {
			return min(time.Duration(min(secs, int(maxRetryAfter/time.Second)))*time.Second, maxRetryAfter)
		}
	}
	return 500 * time.Millisecond
}
