package core

import (
	"fmt"

	"eole/internal/isa"
)

// resetForReplay strips a µ-op back to its fetch-time template: the
// trace content and the cached predictor verdicts survive (each
// dynamic µ-op trains the predictors exactly once, at first fetch);
// all pipeline state is cleared.
func resetForReplay(u *uop) uop {
	return uop{
		MicroOp:     u.MicroOp,
		predUsed:    u.predUsed,
		predValue:   u.predValue,
		predCorrect: u.predCorrect,
		brMispred:   u.brMispred,
		brVHC:       u.brVHC,
		allocBank:   -1,
		prevBank:    -1,
	}
}

// squashYounger throws away every µ-op younger than seq — the whole
// renamed window beyond it, the front-end queue, and the fetch pending
// slot — queues them for refetch in program order, rolls back rename
// state (PRF free lists, RAT, queue occupancies), and restarts fetch
// at the given cycle. This is the paper's recovery mechanism for value
// mispredictions and memory-order violations: a full pipeline squash,
// no selective replay.
func (c *Core) squashYounger(seq uint64, restartFetch uint64) {
	mask := len(c.window) - 1

	// Window entries strictly younger than seq (the window head is
	// already past seq when called from commit).
	keep := 0
	if c.count > 0 && seq >= c.headSeq {
		keep = int(seq-c.headSeq) + 1
	}

	// Everything squashed now is older than anything already awaiting
	// replay (that was fetched after), so the refetch list goes in
	// front of the replay ring: step the head back by its length and
	// fill forward in program order. The ring is owned by the core and
	// sized for the whole in-flight population (see Core.replayQ), so
	// recovery allocates nothing and moves no queued entry.
	n := c.count - keep + c.fqLen
	if c.pendingValid {
		n++
	}
	rqMask := len(c.replayQ) - 1
	if c.replayLen+n > len(c.replayQ) {
		panic(fmt.Sprintf("core: %s replay ring overflow (%d queued + %d squashed > %d)",
			c.cfg.Label(), c.replayLen, n, len(c.replayQ)))
	}
	c.replayHead = (c.replayHead - n) & rqMask
	c.replayLen += n
	slot := c.replayHead

	for i := keep; i < c.count; i++ {
		u := &c.window[(c.head+i)&mask]
		if u.allocBank >= 0 {
			c.prf.Free(u.allocFP, int(u.allocBank))
		}
		if u.inIQ {
			c.iqCount--
		}
		switch u.Op.Class() {
		case isa.ClassLoad:
			c.lqCount--
		case isa.ClassStore:
			c.sqCount--
		}
		c.trace(u, "squash")
		c.replayQ[slot] = resetForReplay(u)
		slot = (slot + 1) & rqMask
	}
	c.count = keep

	// Front-end queue and the fetch pending slot are younger still.
	fqMask := len(c.fetchQ) - 1
	for i := 0; i < c.fqLen; i++ {
		c.replayQ[slot] = resetForReplay(&c.fetchQ[(c.fqHead+i)&fqMask])
		slot = (slot + 1) & rqMask
	}
	c.fqHead, c.fqLen = 0, 0
	if c.pendingValid {
		c.replayQ[slot] = resetForReplay(&c.pending)
		c.pendingValid = false
	}

	// The issue queue is age-ordered, so its squashed entries (counted
	// out of iqCount above) are its tail.
	limit := c.headSeq + uint64(c.count)
	live := len(c.iq)
	for live > 0 && c.iq[live-1].seq >= limit {
		live--
	}
	c.iq = c.iq[:live]

	// Rebuild the RAT from the surviving window.
	for r := range c.rat {
		c.rat[r] = ratEntry{}
	}
	for i := 0; i < c.count; i++ {
		u := &c.window[(c.head+i)&mask]
		if u.Dst.Valid() && u.allocBank >= 0 {
			c.rat[u.Dst] = ratEntry{seq: u.Seq, has: true, bank: uint8(u.allocBank)}
		}
	}

	// Fetch restarts after the squash penalty; any branch block was
	// on a squashed (younger) branch.
	c.fetchBlocked = false
	if restartFetch > c.fetchStallUntil {
		c.fetchStallUntil = restartFetch
	}
}
