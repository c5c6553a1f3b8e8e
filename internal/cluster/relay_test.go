package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"eole/internal/artifact"
	"eole/internal/simsvc"
)

// TestDispatchReusesConnections: a cell is two exchanges (create, then
// the event stream read to its end), and both ride a kept connection —
// a worker sees about MaxInFlight connections, however many cells it
// is sent, not one per cell. (Not exactly MaxInFlight: net/http hands a
// body's EOF to the reader before it parks the connection, so the next
// dispatch can find the pool empty for an instant and dial; the spare
// connection is dropped when it finds the pool full.) Probes are parked
// so the count is the dispatches'.
func TestDispatchReusesConnections(t *testing.T) {
	const maxInFlight = 4
	a, b := newStubWorker(t), newStubWorker(t)
	c := testCoordinator(t, Options{
		Workers:       []string{a.srv.URL, b.srv.URL},
		MaxInFlight:   maxInFlight,
		ProbeInterval: time.Hour,
	})
	// The first probe fires at once; let it finish so its connection is
	// idle (and reused) rather than a fifth one beside the dispatches.
	deadline := time.Now().Add(5 * time.Second)
	for c.Workers()[0].Version == "" || c.Workers()[1].Version == "" {
		if time.Now().After(deadline) {
			t.Fatal("workers never probed")
		}
		time.Sleep(time.Millisecond)
	}

	cfgs := []string{"EOLE_4_64", "EOLE_6_64", "Baseline_6_64", "Baseline_VP_6_64"}
	wls := []string{"gzip", "art", "mcf", "namd", "crafty", "vpr", "parser", "hmmer"}
	var reqs []simsvc.Request
	for _, cfg := range cfgs {
		for _, wl := range wls {
			reqs = append(reqs, req(namedConfig(t, cfg), wl))
		}
	}
	if _, err := c.Sweep(context.Background(), reqs); err != nil {
		t.Fatal(err)
	}
	if n := a.creates.Load() + b.creates.Load(); n != int64(len(reqs)) {
		t.Fatalf("%d dispatches for %d cells", n, len(reqs))
	}
	for i, sw := range []*stubWorker{a, b} {
		if got, cells := sw.conns.Load(), sw.creates.Load(); got > 2*maxInFlight {
			t.Errorf("worker %d accepted %d connections for %d cells, want about MaxInFlight=%d",
				i, got, cells, maxInFlight)
		}
	}
}

// TestRelayedReportMustBeCanonical: a worker whose cell frame carries
// valid JSON that is not the canonical encoding of a report is retried
// elsewhere, and its bytes are neither stored nor served.
func TestRelayedReportMustBeCanonical(t *testing.T) {
	for name, mangle := range map[string]func(canon []byte) []byte{
		"members reordered": func(canon []byte) []byte {
			// {"config":"X","benchmark":"Y",…} → {"config":"X",…,"benchmark":"Y"}
			head, rest, _ := bytes.Cut(canon, []byte(`,"benchmark":`))
			val, tail, _ := bytes.Cut(rest, []byte(`,`))
			out := append(append([]byte{}, head...), ',')
			out = append(out, tail[:len(tail)-1]...)
			return append(append(append(out, `,"benchmark":`...), val...), '}')
		},
		"trailing space": func(canon []byte) []byte {
			return append(append([]byte{}, canon[:len(canon)-1]...), " }"...)
		},
		"no leading config": func(canon []byte) []byte {
			return append([]byte(`{"benchmark":"gzip",`), canon[1:]...)
		},
	} {
		t.Run(name, func(t *testing.T) {
			cell := req(namedConfig(t, "EOLE_4_64"), "gzip")
			want, err := json.Marshal(fakeReport(simulateWire{Config: cell.Config, Workload: cell.Workload, Measure: cell.Measure}))
			if err != nil {
				t.Fatal(err)
			}
			sent := mangle(want)
			if !json.Valid(sent) || bytes.Equal(sent, want) {
				t.Fatalf("test bug: mangled report %s must be valid JSON other than the canonical", sent)
			}
			bad, good := newStubWorker(t), newStubWorker(t)
			f := func(simulateWire) []byte { return sent }
			bad.report.Store(&f)
			store, err := artifact.Open(artifact.Options{})
			if err != nil {
				t.Fatal(err)
			}
			c := testCoordinator(t, Options{
				Workers:     []string{bad.srv.URL, good.srv.URL},
				MaxInFlight: 1,
				Store:       store,
			})
			run, err := c.Start(context.Background(), []simsvc.Request{cell})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := run.Wait(context.Background()); err != nil {
				t.Fatalf("the cell must be retried on the honest worker: %v", err)
			}
			if bad.creates.Load() != 1 || good.creates.Load() != 1 {
				t.Errorf("dispatches: bad %d, good %d; want one each", bad.creates.Load(), good.creates.Load())
			}
			if m := run.Meta()[0]; m.Worker != good.srv.URL || m.Attempts != 2 {
				t.Errorf("cell placed %+v, want the honest worker on attempt 2", m)
			}
			if got := run.Encoded(0).Bytes(); !bytes.Equal(got, want) || bytes.Equal(got, sent) {
				t.Errorf("served %s, want the canonical %s", got, want)
			}
			held, err := store.GetLocal(artifact.KindResult, simsvc.KeyOf(cell).String())
			if err != nil || !bytes.Equal(held, want) {
				t.Errorf("store holds %s (err %v), want the canonical bytes only", held, err)
			}
		})
	}
}

// TestHeldCellsAreNotDispatched: with a Store the coordinator is the
// result tier for what it dispatches — a relayed report is kept, and
// the same sweep again is answered from the store, alias labels
// included, without a worker seeing anything.
func TestHeldCellsAreNotDispatched(t *testing.T) {
	sw := newStubWorker(t)
	store, err := artifact.Open(artifact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := testCoordinator(t, Options{Workers: []string{sw.srv.URL}, Store: store})
	base := namedConfig(t, "EOLE_4_64")
	alias := base
	alias.Name = "MyAlias"
	reqs := []simsvc.Request{req(base, "gzip"), req(alias, "gzip"), req(base, "art")}

	first, err := c.Sweep(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if n := sw.creates.Load(); n != 2 {
		t.Fatalf("first sweep dispatched %d cells, want 2 (one deduped)", n)
	}
	sw.mu.Lock()
	for id, r := range sw.jobs {
		if !r.Relayed {
			t.Errorf("dispatch %s did not carry relayed: a coordinator with a store owns the result tier", id)
		}
	}
	sw.mu.Unlock()

	run, err := c.Start(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	second, err := run.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if n := sw.creates.Load(); n != 2 {
		t.Errorf("the repeated sweep dispatched %d more cells, want none", n-2)
	}
	for i, m := range run.Meta() {
		if !m.Cached || m.Worker != "" || m.Attempts != 0 {
			t.Errorf("cell %d placed %+v, want cached with no worker", i, m)
		}
		a, _ := json.Marshal(first[i])
		b, _ := json.Marshal(second[i])
		if !bytes.Equal(a, b) {
			t.Errorf("cell %d: held report %s differs from the relayed %s", i, b, a)
		}
	}
	if second[1].Config != "MyAlias" {
		t.Errorf("held alias cell labeled %q", second[1].Config)
	}
}
