package eole

import (
	"bytes"
	"fmt"
	"io"

	"eole/internal/core"
	"eole/internal/isa"
)

// Tracer observes the pipeline events of the µ-ops in its Window of
// dynamic sequence numbers, which the simulator reads when each run
// starts. Attach one with WithTracer.
type Tracer = core.Tracer

// Stage is the pipeline event a Tracer observes.
type Stage = core.Stage

// Opcode is a µ-op's operation; its String method gives the mnemonic.
type Opcode = isa.Opcode

// The stages a µ-op reaches. StageEarly and StageLate mark µ-ops that
// the Early Execution block and the LE/VT stage execute, so they never
// issue into the out-of-order engine.
const (
	StageFetch  = core.StageFetch
	StageRename = core.StageRename
	StageEarly  = core.StageEarly
	StageIssue  = core.StageIssue
	StageReady  = core.StageReady
	StageLate   = core.StageLate
	StageCommit = core.StageCommit
	StageSquash = core.StageSquash
)

// PipeTrace is a Tracer that records the N µ-ops from sequence number
// From on and renders them as a gem5-pipeview-style timeline. The zero
// value records nothing. The simulator reads the window when each run
// starts, so it can be set between runs, e.g. after warm-up as eolesim
// does; it must not move once a µ-op in it has been recorded.
type PipeTrace struct {
	From, N uint64
	rows    []traceRow // by seq - From
}

type traceRow struct {
	pc     uint64
	op     Opcode
	events []traceEvent
}

type traceEvent struct {
	stage Stage
	cycle uint64
}

// Window implements Tracer.
func (p *PipeTrace) Window() (from, n uint64) { return p.From, p.N }

// Event implements Tracer.
func (p *PipeTrace) Event(seq, pc uint64, op Opcode, stage Stage, cycle uint64) {
	i := seq - p.From
	if i >= p.N {
		return
	}
	if n := int(i) + 1; n > len(p.rows) {
		p.rows = append(p.rows, make([]traceRow, n-len(p.rows))...)
	}
	r := &p.rows[i] // a refetched seq is the same µ-op again
	r.pc, r.op = pc, op
	r.events = append(r.events, traceEvent{stage, cycle})
}

// stageLetter is each stage's timeline marker.
var stageLetter = [...]byte{
	StageFetch:  'f',
	StageRename: 'r',
	StageEarly:  'E',
	StageIssue:  'i',
	StageReady:  'w',
	StageLate:   'L',
	StageCommit: 'c',
	StageSquash: 'x',
}

// Render writes the timeline. Each row is one µ-op; columns are
// cycles from the first recorded event on, at most 200 of them.
func (p *PipeTrace) Render(w io.Writer) {
	minCycle, maxCycle := ^uint64(0), uint64(0)
	for _, r := range p.rows {
		for _, e := range r.events {
			minCycle = min(minCycle, e.cycle)
			maxCycle = max(maxCycle, e.cycle)
		}
	}
	if minCycle > maxCycle {
		fmt.Fprintln(w, "pipetrace: no events captured")
		return
	}
	span := int(min(maxCycle-minCycle+1, 200))
	fmt.Fprintf(w, "pipetrace: cycles %d..%d (f=fetch r=rename E=early i=issue w=ready L=late c=commit x=squash)\n",
		minCycle, minCycle+uint64(span)-1)
	for i, r := range p.rows {
		if len(r.events) == 0 {
			continue
		}
		line := bytes.Repeat([]byte{'.'}, span)
		for _, e := range r.events {
			pos := e.cycle - minCycle
			// Late execution and commit happen in the same LE/VT
			// cycle; keep the more informative marker.
			if pos >= uint64(span) || line[pos] == 'L' && e.stage == StageCommit {
				continue
			}
			line[pos] = stageLetter[e.stage]
		}
		fmt.Fprintf(w, "%6d %#08x %-6s |%s|\n", p.From+uint64(i), r.pc, r.op, line)
	}
}
