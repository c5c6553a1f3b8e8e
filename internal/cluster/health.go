package cluster

import (
	"context"
	"fmt"
	"time"
)

// probeBackoffCap bounds the failing-state probe interval at this
// multiple of ProbeInterval (doubling per consecutive failure): a dead
// worker is still probed often enough to rejoin within seconds of
// coming back.
const probeBackoffCap = 16

// probeLoop periodically probes one worker's /v1/healthz. A success
// resets the failure count and closes the circuit (waking blocked
// dispatch loops); failures back off exponentially and open the
// circuit at FailureThreshold. The first probe fires immediately, but
// workers start optimistically healthy so dispatch never waits on it.
func (c *Coordinator) probeLoop(w *worker) {
	defer c.wg.Done()
	interval := c.opts.ProbeInterval
	timer := time.NewTimer(0)
	defer timer.Stop()
	for {
		select {
		case <-c.ctx.Done():
			return
		case <-timer.C:
		}
		h, err := c.probeOnce(w)
		c.mu.Lock()
		if err == nil {
			recovered := w.open || w.consecFails > 0
			if w.open {
				c.log.Info("circuit_close", "worker", w.url, "version", h.Version)
			}
			w.open = false
			w.consecFails = 0
			w.lastErr = ""
			w.health = h
			interval = c.opts.ProbeInterval
			if recovered {
				c.cond.Broadcast()
			}
		} else {
			w.consecFails++
			w.lastErr = err.Error()
			if w.consecFails >= c.opts.FailureThreshold && !w.open {
				w.open = true
				c.log.Info("circuit_open", "worker", w.url, "consecutive_failures", w.consecFails, "error", w.lastErr)
				// A retried cell waiting for this worker may now revisit
				// one it has tried, and an all-open fleet must fail fast.
				c.cond.Broadcast()
			}
			if interval < c.opts.ProbeInterval*probeBackoffCap {
				interval *= 2
			}
		}
		c.mu.Unlock()
		timer.Reset(interval)
	}
}

// probeOnce performs one GET /v1/healthz round trip.
func (c *Coordinator) probeOnce(w *worker) (Health, error) {
	ctx, cancel := context.WithTimeout(c.ctx, c.opts.ProbeTimeout)
	defer cancel()
	var h Health
	if _, err := w.api.GetJSON(ctx, "/v1/healthz", &h); err != nil {
		return Health{}, err
	}
	if h.Status != "ok" {
		return Health{}, fmt.Errorf("healthz: status %q", h.Status)
	}
	return h, nil
}
