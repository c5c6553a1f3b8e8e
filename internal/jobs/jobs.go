// Package jobs runs a sweep as a job: its cells go to a simsvc.Service,
// and each one that finishes is appended to the job's event log, which
// a reader follows with EventsSince. The package has no server surface
// and no caller in the simulator or its tools: it stays only for the
// benchmark's in-process L3 rung (bench/ladder.go), which times a sweep
// followed through this log against the same sweep on simsvc alone,
// and it goes when that rung does.
package jobs

import (
	"context"
	"errors"
	"sync"

	"eole/internal/simsvc"
)

// ErrClosed is returned by Create after Close has begun.
var ErrClosed = errors.New("jobs: registry closed")

// Event types.
const (
	EventCell = "cell"
	EventDone = "done"
)

// CellEvent is one finished cell: its index in the job's request list,
// its identity, and exactly one of the service's stored report bytes
// and Error.
type CellEvent struct {
	Index    int
	Config   string
	Workload string
	Cached   bool
	Encoded  simsvc.Encoded
	Error    string
}

// Event is one entry of a job's log. Seqs are contiguous and 1-based;
// the EventDone entry is always the last one and carries the counts.
type Event struct {
	Seq  int
	Type string
	Cell *CellEvent // EventCell only

	// EventDone only: whether Close cut the job short, and how many
	// cells finished with a report and with an error.
	Canceled          bool
	Completed, Failed int
}

// Options configures a Registry. It has no settings; New keeps the
// parameter so its callers compile unchanged.
type Options struct{}

// Registry runs jobs on one service. Create with New; Close cancels
// the jobs still running and waits for them.
type Registry struct {
	svc    *simsvc.Service
	ctx    context.Context // every job runs under it; Close cancels it
	cancel context.CancelFunc

	mu     sync.Mutex
	closed bool
	wg     sync.WaitGroup // one hold per running job
}

// New builds a registry over the service.
func New(svc *simsvc.Service, _ Options) *Registry {
	ctx, cancel := context.WithCancel(context.Background())
	return &Registry{svc: svc, ctx: ctx, cancel: cancel}
}

// Job is one sweep. Its log is append-only, guarded by mu.
type Job struct {
	reqs []simsvc.Request

	mu        sync.Mutex
	completed int
	failed    int
	events    []Event
	changed   chan struct{} // closed and replaced on every append
}

// EventsSince returns the events with seq > after (a snapshot safe to
// read without locks: the log is append-only) and a channel that is
// closed at the next append. A finished job's log ends with EventDone,
// so a reader that attaches late gets everything without blocking.
func (j *Job) EventsSince(after int) ([]Event, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	after = min(max(after, 0), len(j.events))
	return j.events[after:len(j.events):len(j.events)], j.changed
}

// appendLocked stamps the event's seq, appends it and wakes every
// EventsSince reader. Requires j.mu.
func (j *Job) appendLocked(ev Event) {
	ev.Seq = len(j.events) + 1
	j.events = append(j.events, ev)
	close(j.changed)
	j.changed = make(chan struct{})
}

// Create starts a job over the request list. Its lifetime is the
// registry's, not ctx's: only Close ends it early.
func (g *Registry) Create(_ context.Context, reqs []simsvc.Request) (*Job, error) {
	if len(reqs) == 0 {
		return nil, errors.New("jobs: empty request list")
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return nil, ErrClosed
	}
	j := &Job{reqs: reqs, changed: make(chan struct{})}
	g.wg.Add(1)
	go g.run(j)
	return j, nil
}

// Close stops the registry: no new jobs, running ones are canceled
// (their queued cells dropped, their running simulations abandoned),
// and Close returns once each has appended its EventDone. Idempotent.
func (g *Registry) Close() {
	g.mu.Lock()
	g.closed = true
	g.mu.Unlock()
	g.cancel()
	g.wg.Wait()
}

// run submits every cell, appends each outcome as it lands and seals
// the log with EventDone. Cells first, in completion order, EventDone
// last.
func (g *Registry) run(j *Job) {
	defer g.wg.Done()
	keys := simsvc.Keys(j.reqs)
	var wg sync.WaitGroup
	for i := range j.reqs {
		if g.ctx.Err() != nil {
			break // closing: the remaining cells never enter the service
		}
		sj, err := g.svc.SubmitKeyed(g.ctx, j.reqs[i], keys[i])
		if err != nil {
			g.finishCell(j, i, simsvc.Encoded{}, false, err)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := sj.Wait(g.ctx)
			g.finishCell(j, i, sj.Encoded(), sj.Cached(), err)
		}()
	}
	wg.Wait()
	j.mu.Lock()
	j.appendLocked(Event{Type: EventDone, Canceled: g.ctx.Err() != nil, Completed: j.completed, Failed: j.failed})
	j.mu.Unlock()
}

// finishCell appends one cell's outcome. A cancellation-shaped error
// while the registry closes is the close itself, not a cell failure:
// it appends nothing and counts toward nothing.
func (g *Registry) finishCell(j *Job, i int, enc simsvc.Encoded, cached bool, err error) {
	cell := &CellEvent{Index: i, Config: j.reqs[i].Config.Label(), Workload: j.reqs[i].Workload}
	if err == nil {
		cell.Cached, cell.Encoded = cached, enc
	} else if g.ctx.Err() != nil && (errors.Is(err, context.Canceled) || errors.Is(err, simsvc.ErrClosed)) {
		return
	} else {
		cell.Error = err.Error()
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err == nil {
		j.completed++
	} else {
		j.failed++
	}
	j.appendLocked(Event{Type: EventCell, Cell: cell})
}
