package cluster

import (
	"context"
	"net/http"
	"sync"
	"testing"
	"time"

	"eole/internal/simsvc"
)

// gatedWorker is a stub eoled that checks the trace-lead scheduling
// invariant from the worker's side: no sibling cell of a workload may
// arrive before the first cell of that workload has completed.
type gatedWorker struct {
	*stubWorker

	mu         sync.Mutex
	started    map[string]int
	completed  map[string]int
	violations []string
}

func newGatedWorker(t *testing.T, simDelay time.Duration, failFirst bool) *gatedWorker {
	t.Helper()
	gw := &gatedWorker{
		stubWorker: newStubWorker(t),
		started:    make(map[string]int),
		completed:  make(map[string]int),
	}
	arrive := func(w http.ResponseWriter, call int64, req simulateWire) bool {
		if failFirst && call == 1 {
			// The elected lead dies; the coordinator must re-elect
			// instead of parking the workload's siblings forever. The
			// aborted attempt never ran, so it does not count as a
			// start for the invariant (its retry is a fresh election).
			http.Error(w, "boom", http.StatusInternalServerError)
			return true
		}
		gw.mu.Lock()
		defer gw.mu.Unlock()
		if gw.started[req.Workload] > 0 && gw.completed[req.Workload] == 0 {
			gw.violations = append(gw.violations,
				"sibling of "+req.Workload+" dispatched before its lead completed")
		}
		gw.started[req.Workload]++
		return false
	}
	simulate := func(_ context.Context, req simulateWire) {
		time.Sleep(simDelay) // window in which a mis-scheduled sibling would land
		gw.mu.Lock()
		gw.completed[req.Workload]++
		gw.mu.Unlock()
	}
	gw.onCall.Store(&arrive)
	gw.onRun.Store(&simulate)
	return gw
}

// TestShareTracesSerializesWorkloadLeads: a coordinator gates trace
// leads — the first cell of each workload runs alone;
// siblings only dispatch after it completes, then fan out freely.
func TestShareTracesSerializesWorkloadLeads(t *testing.T) {
	gw := newGatedWorker(t, 30*time.Millisecond, false)
	c := testCoordinator(t, Options{
		Workers:     []string{gw.srv.URL},
		MaxInFlight: 8,
	})

	cfgA := namedConfig(t, "EOLE_4_64")
	cfgB := namedConfig(t, "Baseline_6_64")
	cfgC := namedConfig(t, "Baseline_VP_6_64")
	reqs := []simsvc.Request{
		req(cfgA, "gzip"), req(cfgB, "gzip"), req(cfgC, "gzip"),
		req(cfgA, "crafty"), req(cfgB, "crafty"), req(cfgC, "crafty"),
	}
	reports, err := sweep(context.Background(), c, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != len(reqs) {
		t.Fatalf("got %d reports, want %d", len(reports), len(reqs))
	}
	gw.mu.Lock()
	defer gw.mu.Unlock()
	for _, v := range gw.violations {
		t.Error(v)
	}
	for _, wl := range []string{"gzip", "crafty"} {
		if gw.completed[wl] != 3 {
			t.Errorf("%s: %d cells completed, want 3", wl, gw.completed[wl])
		}
	}
}

// TestShareTracesLeadFailureReelects: the lead's dispatch failing must
// release the workload for re-election — the sweep still completes and
// the gating invariant holds across the retry.
func TestShareTracesLeadFailureReelects(t *testing.T) {
	gw := newGatedWorker(t, 10*time.Millisecond, true)
	c := testCoordinator(t, Options{
		Workers:     []string{gw.srv.URL},
		MaxInFlight: 8,
	})

	cfgA := namedConfig(t, "EOLE_4_64")
	cfgB := namedConfig(t, "Baseline_6_64")
	reports, err := sweep(context.Background(), c, []simsvc.Request{
		req(cfgA, "gzip"), req(cfgB, "gzip"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 || reports[0] == nil || reports[1] == nil {
		t.Fatalf("sweep did not complete after lead failure: %v", reports)
	}
	gw.mu.Lock()
	defer gw.mu.Unlock()
	// The failed lead attempt counts as started-but-never-completed;
	// its retry is a fresh election, not a violation.
	for _, v := range gw.violations {
		t.Error(v)
	}
}
