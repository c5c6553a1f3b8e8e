package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// clients is the closed-loop client count: each client sends its next
// op when the previous one completes. The harness shares the machine
// with the eoleds it drives, so it never runs more clients than CPUs.
func clients() int { return min(runtime.NumCPU(), 2) }

// reply is what one op brought back.
type reply struct {
	index   int // position in the op list
	latency time.Duration
	done    time.Duration // completion time since the window opened
	body    []byte        // kept only when asked for
	sum     [sha256.Size]byte
	err     error
}

var (
	reportMark = []byte(`"report": {`)
	errorMark  = []byte(`"error"`)
)

// send posts one op and reads the whole body into buf (a fresh buffer
// when nil): the reply's body is then only good until buf is used
// again, which keeps a client of 340 KB replies from feeding the
// harness's garbage collector while it shares CPUs with the servers.
// The cheap checks run on every reply: status 200, one report per
// cell, no per-cell error. header, when non-nil, is added to the
// request.
func send(ctx context.Context, hc *http.Client, url string, o op, cells int, header http.Header, buf *bytes.Buffer) reply {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(o.Body))
	if err != nil {
		return reply{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range header {
		req.Header[k] = v
	}
	t0 := time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		return reply{err: err}
	}
	if buf == nil {
		buf = new(bytes.Buffer)
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	body := buf.Bytes()
	r := reply{latency: time.Since(t0), body: body, err: err}
	switch {
	case err != nil:
	case resp.StatusCode != http.StatusOK:
		r.err = fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body[:min(len(body), 200)]))
	case cells > 1 && bytes.Count(body, reportMark) != cells:
		r.err = fmt.Errorf("reply holds %d reports, want %d", bytes.Count(body, reportMark), cells)
	case bytes.Contains(body, errorMark):
		r.err = fmt.Errorf("reply holds an error: %s", bytes.TrimSpace(body[:min(len(body), 200)]))
	}
	return r
}

// window is the result of one measured window.
type window struct {
	replies   []reply // completed inside the window, failed ones included
	cellsPerS float64
	cpuMS     float64 // fleet CPU over the window
	rssMB     float64
	elapsed   time.Duration
}

// runWindow drives the closed loop for d. Ops are drawn in list order
// from index first on. keep decides per op index whether the body is
// retained for the deep check after the window; a SameOp workload's
// bodies are hashed instead.
//
// Throughput is summed per client as (cells it completed) / (time of
// its last completion): an op still in flight when the window closes
// then neither counts nor dilutes the rate, which takes the ±1-op
// quantisation out of short windows.
func runWindow(ctx context.Context, f *fleet, w workload, ops *opList, first int, d time.Duration, keep func(int) bool) (*window, error) {
	n := clients()
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: n}}
	defer hc.CloseIdleConnections()
	url := f.base() + w.Endpoint
	var next atomic.Int64
	next.Store(int64(first))
	perClient := make([][]reply, n)

	cpu0, err := f.cpuMS()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for time.Now().Before(deadline) && ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				r := send(ctx, hc, url, ops.at(i), w.Cells, nil, &buf)
				r.index = i
				r.done = time.Since(start)
				if r.done > d {
					return // completed after the window closed: not counted
				}
				if w.SameOp {
					r.sum = sha256.Sum256(r.body)
				}
				if keep(i) {
					r.body = bytes.Clone(r.body)
				} else {
					r.body = nil
				}
				perClient[c] = append(perClient[c], r)
			}
		}()
	}
	// CPU is read when the window closes, not when the stragglers end.
	time.Sleep(time.Until(deadline))
	cpu1, err := f.cpuMS()
	if err != nil {
		return nil, err
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	win := &window{cpuMS: cpu1 - cpu0, elapsed: d}
	for _, rs := range perClient {
		ok := 0
		var last time.Duration
		for _, r := range rs {
			if r.err == nil {
				ok++
				last = r.done
			}
		}
		if ok > 0 {
			win.cellsPerS += float64(ok*w.Cells) / last.Seconds()
		}
		win.replies = append(win.replies, rs...)
	}
	if win.rssMB, err = f.peakRSSMB(); err != nil {
		return nil, err
	}
	return win, nil
}

// setup spawns the fleet and sends the prime: ops 0..PrimeOps-1 of the
// list through the same closed loop as the window. It records the
// traces, fills the caches the workload is meant to hit and lets the
// servers' heaps settle. The returned duration is setup_s; the last
// prime reply is the reference body of a SameOp workload.
func (e *env) setup(ctx context.Context, w workload, ops *opList, traceRing int) (*fleet, time.Duration, reply, error) {
	t0 := time.Now()
	f, err := e.startFleet(ctx, w, traceRing)
	if err != nil {
		return nil, 0, reply{}, err
	}
	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	url := f.base() + w.Endpoint
	// A SameOp prime is one miss then hits, so it runs in order; the
	// others are independent ops and use every client.
	n := clients()
	if w.SameOp {
		n = 1
	}
	var next atomic.Int64
	var mu sync.Mutex
	var last reply
	var firstErr error
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= w.PrimeOps {
					return
				}
				r := send(ctx, hc, url, ops.at(i), w.Cells, nil, nil)
				mu.Lock()
				if r.err != nil && firstErr == nil {
					firstErr = fmt.Errorf("prime op %d: %w", i, r.err)
				}
				if i == w.PrimeOps-1 {
					last = r
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if firstErr != nil {
		f.stop()
		return nil, 0, reply{}, firstErr
	}
	took := time.Since(t0)
	if w.SameOp {
		last.sum = sha256.Sum256(last.body)
	}
	return f, took, last, nil
}

// percentile returns the p-th percentile (0 < p < 100) of sorted
// values by the nearest-rank rule, and how many samples lie beyond it.
func percentile(sorted []float64, p float64) (v float64, beyond int) {
	if len(sorted) == 0 {
		return math.NaN(), 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	rank = min(max(rank, 1), len(sorted))
	return sorted[rank-1], len(sorted) - rank
}

// tailOK reports whether a tail percentile is backed by at least ten
// samples beyond it, the rule the choosing-metrics guide sets.
func tailOK(beyond int) bool { return beyond >= 10 }

func median(v []float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := slices.Clone(v)
	slices.Sort(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// keepOneIn returns a seeded predicate that picks one op in n: limit
// distinct indexes among the n*limit that follow first, which every
// full-length window completes, and always first itself so that even a
// smoke window has a reply to check.
func keepOneIn(seed int64, n, limit, first int) func(int) bool {
	rng := rand.New(rand.NewSource(seed))
	picked := map[int]bool{first: true}
	for len(picked) < limit {
		picked[first+rng.Intn(n*limit)] = true
	}
	return func(i int) bool { return picked[i] }
}
