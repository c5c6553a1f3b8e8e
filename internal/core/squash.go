package core

import "eole/internal/isa"

// resetForReplay strips a µ-op back to its fetch-time template, where
// it lies: the trace content and the cached predictor verdicts survive
// (each dynamic µ-op trains the predictors exactly once, at first
// fetch); all pipeline state is cleared.
func resetForReplay(u *uop) { u.pipeState = unfetched() }

// unfetched is the pipeState of a µ-op no stage holds: what first fetch
// starts from and a squash returns to.
func unfetched() pipeState { return pipeState{allocBank: -1, prevBank: -1} }

// squashYounger throws away every µ-op younger than seq — the whole
// renamed window beyond it, the front-end queue, and the µ-op fetch
// has pending — leaves them in their ring slots to be refetched in
// program order, rolls back rename state (PRF free lists, RAT, queue
// occupancies), and restarts fetch at the given cycle. This is the
// paper's recovery mechanism for value mispredictions and memory-order
// violations: a full pipeline squash, no selective replay.
func (c *Core) squashYounger(seq uint64, restartFetch uint64) {
	// Window entries strictly younger than seq (the window head is
	// already past seq when called from commit).
	keep := 0
	if c.count > 0 && seq >= c.headSeq {
		keep = int(seq-c.headSeq) + 1
	}
	first, renamed := c.headSeq+uint64(keep), c.headSeq+uint64(c.count)
	for s := first; s < renamed; s++ {
		u := c.at(s)
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
		resetForReplay(u)
	}

	// The front-end queue and the pending µ-op are younger still and
	// hold nothing; whatever already awaits replay follows them. So the
	// squashed range, reset, is the head of the new replay region: no
	// entry moves, only the boundaries do.
	end := c.fetchSeq()
	if c.pendingValid {
		end++
	}
	for s := renamed; s < end; s++ {
		resetForReplay(c.at(s))
	}
	c.replayLen += int(end - first)
	c.count, c.fqLen, c.pendingValid = keep, 0, false

	// The issue queue is age-ordered, so its squashed entries (counted
	// out of iqCount above) are its tail.
	live := len(c.iq)
	for live > 0 && c.iq[live-1].seq >= first {
		live--
	}
	c.iq = c.iq[:live]

	// Rebuild the RAT from the surviving window.
	for r := range c.rat {
		c.rat[r] = ratEntry{}
	}
	for s := c.headSeq; s < first; s++ {
		u := c.at(s)
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
