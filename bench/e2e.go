package main

import (
	"context"
	"fmt"
	"slices"
	"time"
)

// result is one run of one workload: the end-to-end metrics with
// tracing off, or the per-layer metrics of a traced run.
type result struct {
	Workload  string
	Seed      int64
	Traced    bool
	Metrics   measurements
	Attempted int
	Failed    int
	Errors    []string          // the first few failures, for the report
	Notes     map[string]string // printed beside a metric
}

func (r *result) correct() bool { return r.Failed == 0 }

// fail records one failed op or check.
func (r *result) fail(format string, args ...any) {
	r.Failed++
	if len(r.Errors) < 5 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// verifyOneIn and verifyOps bound the deep check after a window: one
// kept reply in ten, at most verifyOps of them per segment, so that
// checking stays near a second whatever the window length.
const (
	verifyOneIn = 10
	verifyOps   = 2
)

// segmentStride separates the op indexes of a run's segments, so that
// no two draw the same k; no segment sends that many ops.
const segmentStride = 1024

// runEndToEnd measures one workload with tracing off. The run is cut
// into segments: each sets a fresh fleet up, drives it closed-loop for
// d/segments and checks the replies. A metric is the median of its
// per-segment values (latencies are pooled), so that one slow stretch
// or one unluckily laid-out process does not decide the run; times are
// scaled by the machine speed measured beside them (see calibrate.go).
func (e *env) runEndToEnd(ctx context.Context, w workload, seed int64, d time.Duration, segments int) (*result, error) {
	ops := newOpList(w, seed)
	res := &result{Workload: w.Name, Seed: seed, Metrics: measurements{}, Notes: map[string]string{}}
	var setupS, cellsPerS, cpuMS, rssMB, speeds, lat []float64
	checked := 0
	for seg := 0; seg < segments; seg++ {
		meter := startSpeedMeter()
		f, took, ref, err := e.setup(ctx, w, ops, 0)
		setupSpeed := meter.read()
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
		}
		first := w.PrimeOps + seg*segmentStride
		keep := func(int) bool { return false }
		if !w.SameOp {
			keep = keepOneIn(seed, verifyOneIn, verifyOps, first)
		}
		meter = startSpeedMeter()
		win, err := runWindow(ctx, f, w, ops, first, d/time.Duration(segments), keep)
		speed := meter.read()
		f.stop() // before the checks: they use every CPU
		if err != nil {
			return nil, fmt.Errorf("%s: window: %w", w.Name, err)
		}
		checked += verifyWindow(w, ops, win, ref, seed)

		for _, r := range win.replies {
			res.Attempted++
			if r.err != nil {
				res.fail("%v", r.err)
				continue
			}
			lat = append(lat, ms(r.latency)*speed)
		}
		if win.cellsPerS == 0 {
			return nil, fmt.Errorf("%s: no op completed inside a %v window", w.Name, win.elapsed)
		}
		setupS = append(setupS, took.Seconds()*setupSpeed)
		cellsPerS = append(cellsPerS, win.cellsPerS/speed)
		cpuMS = append(cpuMS, win.cpuMS/(win.cellsPerS*win.elapsed.Seconds())*speed)
		rssMB = append(rssMB, win.rssMB)
		speeds = append(speeds, speed)
	}
	slices.Sort(lat)
	p50, _ := percentile(lat, 50)
	p90, beyond := percentile(lat, 90)
	res.Metrics.set("setup_s", median(setupS))
	res.Metrics.set("cells_per_s", median(cellsPerS))
	res.Metrics.set("latency_p50_ms", p50)
	res.Metrics.set("latency_p90_ms", p90)
	res.Metrics.set("cpu_ms_per_cell", median(cpuMS))
	res.Metrics.set("peak_rss_mb", median(rssMB))

	res.Notes["setup_s"] = fmt.Sprintf("median of %d set-ups %.3v", segments, setupS)
	res.Notes["cells_per_s"] = fmt.Sprintf("median of %.5v; machine speed beside them %.3v of the reference", cellsPerS, speeds)
	res.Notes["latency_p50_ms"] = fmt.Sprintf("%d ops, %d failed, %d checked after their window", res.Attempted, res.Failed, checked)
	res.Notes["latency_p90_ms"] = fmt.Sprintf("%d samples, %d beyond p90", len(lat), beyond)
	if !tailOK(beyond) {
		res.Notes["latency_p90_ms"] += " (fewer than 10: read it as a maximum, not a percentile)"
	}
	return res, nil
}
