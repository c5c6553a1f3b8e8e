package core

import "eole/internal/isa"

// Stage is the pipeline event a Tracer observes.
type Stage uint8

const (
	StageFetch  Stage = iota
	StageRename       // renamed into the window
	StageEarly        // executed in the Early Execution block
	StageIssue        // issued to a functional unit
	StageReady        // result ready (writeback)
	StageLate         // executed in the LE/VT stage
	StageCommit
	StageSquash
)

// Tracer observes the pipeline events of the µ-ops in a window of
// dynamic sequence numbers. Outside the window, and with no tracer
// attached, an event costs the core one compare.
type Tracer interface {
	// Window returns the traced sequence numbers, [from, from+n). The
	// core reads it when the tracer is attached and when a run starts.
	Window() (from, n uint64)
	// Event records that a µ-op reached a stage at a cycle.
	Event(seq, pc uint64, op isa.Opcode, stage Stage, cycle uint64)
}

// SetTracer attaches a tracer (nil detaches).
func (c *Core) SetTracer(t Tracer) {
	c.tracer, c.traceFrom, c.traceN = t, 0, 0
	if t != nil {
		c.traceFrom, c.traceN = t.Window()
	}
}

// trace reports u reaching a stage this cycle. It inlines to the window
// compare; traceEvent stays out of line so that it can.
func (c *Core) trace(u *uop, s Stage) {
	if u.Seq-c.traceFrom < c.traceN {
		c.traceEvent(u, s, c.now)
	}
}

//go:noinline
func (c *Core) traceEvent(u *uop, s Stage, cycle uint64) {
	c.tracer.Event(u.Seq, u.PC, u.Op, s, cycle)
}
