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

// squashPipeline throws away every in-flight µ-op — the whole renamed
// window, the front-end queue, and the µ-op fetch has pending — leaves
// them in their ring slots to be refetched in program order, rolls
// back rename state (PRF free lists, RAT, queue occupancies), and
// restarts fetch at the given cycle. This is the paper's recovery
// mechanism for value mispredictions and memory-order violations: a
// full pipeline squash behind the committing µ-op (commit has already
// moved headSeq past it), no selective replay. Waiter chains and the
// select list name squashed µ-ops only, so they go with them; a squash
// that kept part of the window would have to unlink the squashed
// waiters from the chains of surviving producers.
func (c *Core) squashPipeline(restartFetch uint64) {
	renamed := c.headSeq + uint64(c.count)
	for s := c.headSeq; s < renamed; s++ {
		u := c.at(s)
		if u.allocBank >= 0 {
			c.prf.Free(u.allocFP, int(u.allocBank))
		}
		c.trace(u, StageSquash)
	}
	// The front-end queue and the pending µ-op are younger still and
	// hold nothing; whatever already awaits replay follows them. So the
	// squashed range, reset, is the head of the new replay region: no
	// entry moves, only the boundaries do.
	end := c.fetchSeq()
	if c.pendingValid {
		end++
	}
	for s := c.headSeq; s < end; s++ {
		resetForReplay(c.at(s))
	}
	c.replayLen += int(end - c.headSeq)
	c.count, c.fqLen, c.pendingValid = 0, 0, false
	c.iqCount, c.lqCount, c.sqCount = 0, 0, 0
	c.iq = c.iq[:0]
	c.issueWake = never
	c.rat = [isa.NumArchRegs]ratEntry{}

	// Fetch restarts after the squash penalty; any branch block was
	// on a squashed (younger) branch.
	c.fetchBlocked = false
	if restartFetch > c.fetchStallUntil {
		c.fetchStallUntil = restartFetch
	}
}
