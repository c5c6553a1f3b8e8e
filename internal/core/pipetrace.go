package core

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Tracer observes per-µ-op pipeline events. Attach one with SetTracer
// to debug schedules or to visualize where EOLE diverts µ-ops; tracing
// is disabled (zero-cost) by default.
type Tracer interface {
	// Event records that the µ-op with the given dynamic sequence
	// number reached a pipeline stage at a cycle. Stages: "fetch",
	// "rename", "early", "issue", "ready", "late", "commit",
	// "squash".
	Event(seq uint64, pc uint64, op string, stage string, cycle uint64)
}

// SetTracer attaches a tracer (nil detaches).
func (c *Core) SetTracer(t Tracer) { c.tracer = t }

// trace reports u reaching a stage this cycle. It is small enough to
// inline, so with no tracer attached a call site costs one nil check.
func (c *Core) trace(u *uop, stage string) {
	if c.tracer != nil {
		c.traceEvent(u, stage)
	}
}

func (c *Core) traceEvent(u *uop, stage string) {
	c.tracer.Event(u.Seq, u.PC, u.Op.String(), stage, c.now)
}

// PipeTrace collects events for a window of sequence numbers and
// renders a gem5-pipeview-style timeline.
type PipeTrace struct {
	// FromSeq/ToSeq bound the traced µ-ops (inclusive).
	FromSeq, ToSeq uint64
	rows           map[uint64]*traceRow
}

type traceRow struct {
	seq    uint64
	pc     uint64
	op     string
	stages []traceEvent
}

type traceEvent struct {
	stage string
	cycle uint64
}

// NewPipeTrace traces µ-ops with sequence numbers in [from, to].
func NewPipeTrace(from, to uint64) *PipeTrace {
	return &PipeTrace{FromSeq: from, ToSeq: to, rows: map[uint64]*traceRow{}}
}

// Event implements Tracer.
func (p *PipeTrace) Event(seq, pc uint64, op, stage string, cycle uint64) {
	if seq < p.FromSeq || seq > p.ToSeq {
		return
	}
	r := p.rows[seq]
	if r == nil {
		r = &traceRow{seq: seq, pc: pc, op: op}
		p.rows[seq] = r
	}
	r.stages = append(r.stages, traceEvent{stage, cycle})
}

// stageLetter maps stages to single-character timeline markers.
var stageLetter = map[string]byte{
	"fetch":  'f',
	"rename": 'r',
	"early":  'E', // executed in the Early Execution block
	"issue":  'i',
	"ready":  'w', // writeback / result ready
	"late":   'L', // executed in the LE/VT stage
	"commit": 'c',
	"squash": 'x',
}

// Render writes the timeline. Each row is one µ-op; columns are
// cycles relative to the first traced fetch.
func (p *PipeTrace) Render(w io.Writer) {
	if len(p.rows) == 0 {
		fmt.Fprintln(w, "pipetrace: no events captured")
		return
	}
	seqs := make([]uint64, 0, len(p.rows))
	var minCycle, maxCycle uint64 = ^uint64(0), 0
	for seq, r := range p.rows {
		seqs = append(seqs, seq)
		for _, e := range r.stages {
			if e.cycle < minCycle {
				minCycle = e.cycle
			}
			if e.cycle > maxCycle {
				maxCycle = e.cycle
			}
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	span := int(maxCycle-minCycle) + 1
	const maxSpan = 200
	if span > maxSpan {
		span = maxSpan
	}
	fmt.Fprintf(w, "pipetrace: cycles %d..%d (f=fetch r=rename E=early i=issue w=ready L=late c=commit x=squash)\n",
		minCycle, minCycle+uint64(span)-1)
	for _, seq := range seqs {
		r := p.rows[seq]
		line := make([]byte, span)
		for i := range line {
			line[i] = '.'
		}
		for _, e := range r.stages {
			pos := int(e.cycle - minCycle)
			if pos < 0 || pos >= span {
				continue
			}
			// Late execution and commit happen in the same LE/VT
			// cycle; keep the more informative marker.
			if line[pos] == 'L' && e.stage == "commit" {
				continue
			}
			line[pos] = stageLetter[e.stage]
		}
		fmt.Fprintf(w, "%6d %#08x %-6s |%s|\n", r.seq, r.pc, r.op, string(line))
	}
}

// Summary returns per-stage event counts (for tests and quick looks).
func (p *PipeTrace) Summary() map[string]int {
	out := map[string]int{}
	for _, r := range p.rows {
		for _, e := range r.stages {
			out[e.stage]++
		}
	}
	return out
}

// String renders to a string.
func (p *PipeTrace) String() string {
	var b strings.Builder
	p.Render(&b)
	return b.String()
}
