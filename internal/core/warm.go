package core

import (
	"context"

	"eole/internal/isa"
)

// This file is the functional-warming fast path behind sampled
// simulation (internal/sample): taking the stream's pairs as fetch
// takes them — a live source trains the predictors on each, a track
// has the verdicts already — while touching the caches and exercising
// the Store Sets tables, with no cycle accounting and no pipeline
// occupancy. One warmed µ-op costs what the source pays to produce it
// — an interpreter step or a decode, plus the predictor updates — read
// where it lies in the current batch: an order of magnitude less than
// a detailed cycle, so a SMARTS-style
// sampler can keep microarchitectural state hot across long
// fast-forward gaps and spend detailed simulation only on short
// measurement windows.
//
// Warming is exact for the predictors: the detailed core trains TAGE
// and the value predictor once per dynamic µ-op, in fetch (program)
// order, and replayed µ-ops never retrain — which is precisely the
// order and multiplicity of the warm loop. Cache and Store Sets state
// is approximate (no overlap, no wrong-timing effects), matching the
// functional-warming idealization of SMARTS.

// warmCtxCheckInterval is the cancellation-checkpoint granularity of
// WarmContext/SkipContext in µ-ops (warming runs at tens of millions
// of µ-ops per second, so checks stay microseconds apart).
const warmCtxCheckInterval = 8192

// FlushPipeline discards every in-flight µ-op and resets the
// pipeline's bookkeeping — the in-flight ring's regions, RAT,
// PRF free lists, queue occupancy counters and fetch control — while
// leaving predictors, caches, Store Sets and the accumulated Stats
// untouched. The sampler calls it between a measurement window and
// the next fast-forward phase: the discarded µ-ops were already
// fetched (and therefore already trained the predictors), and the
// source cannot rewind, so dropping them is the consistent way to
// hand the stream to the warm loop.
func (c *Core) FlushPipeline() {
	// The ring's slots keep their stale contents: fetch writes a slot
	// whole before anything reads it.
	c.headSeq = 0
	c.count, c.fqLen, c.pendingValid, c.replayLen = 0, 0, false, 0
	c.rat = [isa.NumArchRegs]ratEntry{}
	c.commitB = [isa.NumArchRegs]struct {
		bank uint8
		has  bool
	}{}
	c.iqCount, c.lqCount, c.sqCount = 0, 0, 0
	c.iq = c.iq[:0]
	c.issueWake = never
	for i := range c.divBusyUntil {
		c.divBusyUntil[i] = 0
	}
	for i := range c.fpDivBusyUntil {
		c.fpDivBusyUntil[i] = 0
	}
	c.fetchStallUntil = 0
	c.fetchBlocked = false
	c.fetchBlockedBy = 0
	c.headPortWait = 0
	c.prf.Reset()
}

// flushInFlight calls FlushPipeline if any µ-op is in flight: Warm and
// Skip take from the stream where fetch left it, so a µ-op fetch took
// and did not commit is dropped, as the sampler drops it.
func (c *Core) flushInFlight() {
	if c.count != 0 || c.fqLen != 0 || c.pendingValid || c.replayLen != 0 {
		c.FlushPipeline()
	}
}

// Warm advances the source by up to n µ-ops in warm-only mode (see
// the file comment) and returns how many were consumed (< n only when
// the source ran dry). A core with µ-ops in flight flushes its
// pipeline first.
func (c *Core) Warm(n uint64) uint64 {
	done, _ := c.WarmContext(context.Background(), n)
	return done
}

// WarmContext is Warm with cooperative cancellation: the loop checks
// ctx every few thousand µ-ops and returns ctx.Err() when it fires.
func (c *Core) WarmContext(ctx context.Context, n uint64) (uint64, error) {
	c.flushInFlight()
	cDone := ctx.Done()
	var lastFetchLine uint64 = ^uint64(0)
	for done := uint64(0); done < n; done++ {
		if cDone != nil && done%warmCtxCheckInterval == warmCtxCheckInterval-1 {
			select {
			case <-cDone:
				return done, ctx.Err()
			default:
			}
		}
		// The pair detailed fetch would take: a live source predicts it
		// now, in the order and multiplicity of detailed fetch (each
		// dynamic µ-op trains exactly once).
		if c.batch.pos >= c.batch.n && !c.refill() {
			return done, nil
		}
		u := &c.warmOp
		c.take(u)

		// Instruction cache: one access per fetched line, like the
		// front end's per-group line probe.
		if line := u.PC >> 6; line != lastFetchLine {
			lastFetchLine = line
			c.mem.Fetch(u.PC, c.now)
		}

		// Data caches and Store Sets. The nominal one-cycle-per-µ-op
		// clock keeps MSHR and prefetcher timestamps advancing.
		switch u.Class {
		case isa.ClassLoad:
			c.mem.Load(u.PC, u.Addr, c.now)
			c.ss.OnLoadDispatch(u.PC)
		case isa.ClassStore:
			c.mem.Store(u.PC, u.Addr, c.now)
			c.ss.OnStoreDispatch(u.PC, u.Seq)
			c.ss.OnStoreComplete(u.PC, u.Seq)
		}
		c.now++
	}
	return n, nil
}

// Skip advances the source by up to n µ-ops without touching any
// microarchitectural state at all — the cheapest fast-forward. What
// it costs is the source's business: a source that can seek
// (a trace's record cursor, or a prog.Skipper like a trace replay)
// moves its position and produces none of the skipped µ-ops; from any
// other the skipped µ-ops still pass through the batch, so an
// execute-driven run pays the functional interpreter for every one of
// them. No source makes a pair it skips. A core with µ-ops in flight
// flushes its pipeline first. It returns how many µ-ops were consumed.
func (c *Core) Skip(n uint64) uint64 {
	done, _ := c.SkipContext(context.Background(), n)
	return done
}

// SkipContext is Skip with cooperative cancellation: it checks ctx
// at least every warmCtxCheckInterval µ-ops, as WarmContext does, so a
// seeking source sees one long skip as many short ones — which is why
// a Skipper's Skip must cost nothing per call.
func (c *Core) SkipContext(ctx context.Context, n uint64) (uint64, error) {
	c.flushInFlight()
	cDone := ctx.Done()
	b := &c.batch
	var done uint64
	for done < n {
		if cDone != nil {
			select {
			case <-cDone:
				return done, ctx.Err()
			default:
			}
		}
		k := min(n-done, warmCtxCheckInterval)
		if b.pos >= b.n {
			if got, ok := c.src.seek(k); ok {
				if done += got; got < k {
					return done, nil
				}
				continue
			}
			if !c.refill() {
				return done, nil
			}
		}
		k = min(k, uint64(b.n-b.pos))
		b.skip(int(k))
		done += k
	}
	return n, nil
}
