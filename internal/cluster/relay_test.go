package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
	"time"

	"eole"
	"eole/internal/artifact"
	"eole/internal/simsvc"
)

// TestDispatchReusesConnections: a cell is one exchange, its body read
// to the end, on a kept connection — a worker sees about MaxInFlight
// connections, however many cells it is sent, not one per cell. (Not
// exactly MaxInFlight: net/http hands a body's EOF to the reader before
// it parks the connection, so the next dispatch can find the pool empty
// for an instant and dial; the spare connection is dropped when it
// finds the pool full.) Probes are parked so the count is the
// dispatches'.
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
	if _, err := sweep(context.Background(), c, reqs); err != nil {
		t.Fatal(err)
	}
	if n := a.calls.Load() + b.calls.Load(); n != int64(len(reqs)) {
		t.Fatalf("%d dispatches for %d cells", n, len(reqs))
	}
	for i, sw := range []*stubWorker{a, b} {
		if got, cells := sw.conns.Load(), sw.calls.Load(); got > 2*maxInFlight {
			t.Errorf("worker %d accepted %d connections for %d cells, want about MaxInFlight=%d",
				i, got, cells, maxInFlight)
		}
	}
}

// TestRelayedReportMustBeCanonical: a worker whose reply is valid JSON
// that is not the canonical encoding of a report is retried elsewhere,
// and its bytes are neither stored nor served.
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
			store := memStore(t)
			c := testCoordinator(t, Options{
				Workers:     []string{bad.srv.URL, good.srv.URL},
				MaxInFlight: 1,
				Store:       store,
			})
			reqs := []simsvc.Request{cell}
			run, err := c.Start(context.Background(), reqs, simsvc.Keys(reqs))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := collect(run, reqs); err != nil {
				t.Fatalf("the cell must be retried on the honest worker: %v", err)
			}
			if bad.calls.Load() != 1 || good.calls.Load() != 1 {
				t.Errorf("dispatches: bad %d, good %d; want one each", bad.calls.Load(), good.calls.Load())
			}
			if ws := c.Workers(); ws[0].Requeued != 1 || ws[1].Completed != 1 {
				t.Errorf("workers %+v, want the cell requeued by the bad one and completed by the honest one", ws)
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

// TestHeldCellsAreNotDispatched: the coordinator is the result tier
// for what it dispatches — a relayed report is kept, and
// the same sweep again is answered from the store, alias labels
// included, without a worker seeing anything.
func TestHeldCellsAreNotDispatched(t *testing.T) {
	sw := newStubWorker(t)
	c := testCoordinator(t, Options{Workers: []string{sw.srv.URL}})
	base := namedConfig(t, "EOLE_4_64")
	alias := base
	alias.Name = "MyAlias"
	reqs := []simsvc.Request{req(base, "gzip"), req(alias, "gzip"), req(base, "art")}

	first, err := sweep(context.Background(), c, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if n := sw.calls.Load(); n != 2 {
		t.Fatalf("first sweep dispatched %d cells, want 2 (one deduped)", n)
	}
	if n := sw.relayed.Load(); n != 2 {
		t.Errorf("%d of 2 dispatches carried relayed: the coordinator owns the result tier", n)
	}

	run, err := c.Start(context.Background(), reqs, simsvc.Keys(reqs))
	if err != nil {
		t.Fatal(err)
	}
	second, err := collect(run, reqs)
	if err != nil {
		t.Fatal(err)
	}
	if n := sw.calls.Load(); n != 2 {
		t.Errorf("the repeated sweep dispatched %d more cells, want none", n-2)
	}
	for i := range reqs {
		if !run.Cached(i) {
			t.Errorf("cell %d was not answered from the store", i)
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

// FuzzRelayedReply: whatever a worker answers POST /v1/simulate with,
// the gate post puts the body through never panics, and a report it
// lets through is exactly what this build writes for it — it
// re-encodes to itself and opens with the member the splice relies on.
func FuzzRelayedReply(f *testing.F) {
	canon, err := json.Marshal(&eole.Report{Config: "a\"b<c>\u2028", Benchmark: "gzip", Cycles: 7, Committed: 9, IPC: 1.25})
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{
		append(append([]byte{}, canon...), '\n'),
		canon,
		append(append([]byte{}, canon[:len(canon)-1]...), " }\n"...),
		append(append([]byte{}, canon...), canon...),
		[]byte(`{"config":"x","benchmark":"gzip","cycles":1}` + "\n"),
		[]byte(`{"error":"simulation failed"}` + "\n"),
		[]byte("null\n"),
		nil,
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		enc, err := relayedReply(body)
		if err != nil {
			return
		}
		report := enc.Bytes()
		if !bytes.HasPrefix(report, []byte(`{"config":"`)) {
			t.Fatalf("accepted report does not open with the config member: %s", report)
		}
		var rep eole.Report
		if err := json.Unmarshal(report, &rep); err != nil {
			t.Fatalf("accepted report does not decode: %v: %s", err, report)
		}
		if again, err := json.Marshal(&rep); err != nil || !bytes.Equal(again, report) {
			t.Fatalf("accepted report re-encodes to\n%s\nnot itself\n%s", again, report)
		}
	})
}
