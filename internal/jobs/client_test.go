package jobs

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"eole/internal/obs"
)

// streamFixture scripts the server side of the job dance the way eoled
// serves it: POST /v1/jobs answers 202 with a fixed id, the event
// stream serves the scripted NDJSON frames (heartbeat included), and
// DELETE cancels. Every request is recorded. drop, when set, decides
// per attach after how many stored frames the connection is cut (0 =
// serve to the end), forcing the client to resume via ?from.
type streamFixture struct {
	srv    *httptest.Server
	frames []string
	drop   func(attach int) int

	mu       sync.Mutex
	froms    []string      // ?from of each stream attach
	cancels  []http.Header // headers of each DELETE
	requests []http.Header // headers of every request
}

var sweepFrames = []string{
	`{"seq":1,"type":"cell","job":"job0001","cell":{"index":0,"config":"EOLE_4_64","workload":"gzip","report":{"config":"EOLE_4_64","benchmark":"gzip","ipc":1.25}}}`,
	`{"type":"heartbeat"}`,
	`{"seq":2,"type":"cell","job":"job0001","cell":{"index":2,"config":"Baseline_6_64","workload":"gzip","cached":true,"report":{"config":"Baseline_6_64","benchmark":"gzip","ipc":1.0}}}`,
	`{"seq":3,"type":"cell","job":"job0001","cell":{"index":1,"config":"EOLE_4_64","workload":"hmmer","report":{"config":"EOLE_4_64","benchmark":"hmmer","ipc":1.19}}}`,
	`{"seq":4,"type":"cell","job":"job0001","cell":{"index":3,"config":"Baseline_6_64","workload":"hmmer","error":"workload stream ended early"}}`,
	`{"seq":5,"type":"done","job":"job0001","state":"failed","completed":3,"failed":1,"total":4}`,
}

func newStreamFixture(t *testing.T, frames []string, drop func(attach int) int) (*streamFixture, *Client) {
	t.Helper()
	fx := &streamFixture{frames: frames, drop: drop}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprint(w, `{"id":"job0001","state":"queued","cells_total":4,"status_url":"/v1/jobs/job0001","events_url":"/v1/jobs/job0001/events"}`)
	})
	mux.HandleFunc("GET /v1/jobs/job0001/events", func(w http.ResponseWriter, r *http.Request) {
		if !strings.Contains(r.Header.Get("Accept"), "application/x-ndjson") {
			t.Errorf("stream request did not ask for NDJSON (Accept %q)", r.Header.Get("Accept"))
		}
		fx.mu.Lock()
		fx.froms = append(fx.froms, r.URL.Query().Get("from"))
		attach := len(fx.froms)
		fx.mu.Unlock()
		cut := 0
		if fx.drop != nil {
			cut = fx.drop(attach)
		}
		from := 0
		fmt.Sscanf(r.URL.Query().Get("from"), "%d", &from)
		sent := 0
		for _, fr := range fx.frames {
			seq := 0
			fmt.Sscanf(fr, `{"seq":%d,`, &seq)
			if seq != 0 && seq <= from {
				continue
			}
			fmt.Fprintln(w, fr)
			w.(http.Flusher).Flush()
			if seq != 0 {
				if sent++; sent == cut {
					return // drop the connection mid-stream
				}
			}
		}
		if !strings.Contains(fx.frames[len(fx.frames)-1], `"type":"done"`) {
			<-r.Context().Done() // a job still running: the stream stays open
		}
	})
	mux.HandleFunc("DELETE /v1/jobs/job0001", func(w http.ResponseWriter, r *http.Request) {
		fx.mu.Lock()
		fx.cancels = append(fx.cancels, r.Header.Clone())
		fx.mu.Unlock()
		fmt.Fprint(w, `{"id":"job0001","state":"canceled","cells_total":4,"cells_completed":2}`)
	})
	mux.HandleFunc("GET /v1/jobs/job0001", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"id":"job0001","state":"running","cells_total":4,"cells_completed":2,"last_seq":2,"cells":[{"config":"EOLE_4_64","workload":"gzip","done":true}]}`)
	})
	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"jobs":[{"id":"job0001","state":"running","cells_total":4},{"id":"job0000","state":"done","cells_total":1}]}`)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNotFound)
		fmt.Fprint(w, `{"error":"jobs: no such job"}`)
	})
	fx.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fx.mu.Lock()
		fx.requests = append(fx.requests, r.Header.Clone())
		fx.mu.Unlock()
		mux.ServeHTTP(w, r)
	}))
	t.Cleanup(fx.srv.Close)
	return fx, &Client{Base: fx.srv.URL, HTTP: fx.srv.Client()}
}

// TestClientFollowResume cuts the first stream after two events: the
// client must re-attach with ?from=2 and still deliver every stored
// event exactly once, in order, skipping heartbeats and the replayed
// overlap — and must not cancel a job it followed to the end.
func TestClientFollowResume(t *testing.T) {
	fx, c := newStreamFixture(t, sweepFrames, func(attach int) int {
		if attach == 1 {
			return 2
		}
		return 0
	})
	created, err := c.Create(context.Background(), []byte(`{"configs":["EOLE_4_64"],"workloads":["gzip"]}`))
	if err != nil {
		t.Fatal(err)
	}
	if created.ID != "job0001" || created.CellsTotal != 4 || created.State != StateQueued {
		t.Fatalf("created = %+v", created)
	}
	var seqs []int
	var last Event
	err = c.Follow(context.Background(), created.ID, func(ev Event) error {
		if ev.Type == EventHeartbeat {
			t.Error("heartbeat delivered to the callback")
		}
		seqs = append(seqs, ev.Seq)
		last = ev
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(seqs) != "[1 2 3 4 5]" {
		t.Errorf("delivered seqs %v, want each of 1..5 exactly once", seqs)
	}
	if last.Type != EventDone || last.State != StateFailed || last.Failed != 1 {
		t.Errorf("terminal frame = %+v", last)
	}
	if fmt.Sprint(fx.froms) != "[0 2]" {
		t.Errorf("resume cursors = %v, want [0 2]", fx.froms)
	}
	if len(fx.cancels) != 0 {
		t.Errorf("a job followed to its terminal frame was canceled %d times", len(fx.cancels))
	}
}

// TestClientFollowAbandonCancels: every way of leaving Follow without
// the terminal frame cancels the job first.
func TestClientFollowAbandonCancels(t *testing.T) {
	t.Run("callback error", func(t *testing.T) {
		fx, c := newStreamFixture(t, sweepFrames, nil)
		boom := errors.New("boom")
		err := c.Follow(context.Background(), "job0001", func(Event) error { return boom })
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v, want the callback's", err)
		}
		if len(fx.froms) != 1 || len(fx.cancels) != 1 {
			t.Errorf("%d attaches, %d cancels; want 1 and 1 (an aborting callback is final)", len(fx.froms), len(fx.cancels))
		}
	})
	t.Run("reconnect budget spent", func(t *testing.T) {
		// Every attach dies after one more event; the budget is one
		// attach plus streamReconnects re-attaches.
		fx, c := newStreamFixture(t, sweepFrames, func(int) int { return 1 })
		n := 0
		err := c.Follow(context.Background(), "job0001", func(Event) error { n++; return nil })
		if err == nil || !strings.Contains(err.Error(), "event stream dropped after seq 4") {
			t.Fatalf("err = %v, want the last drop", err)
		}
		if n != 4 || fmt.Sprint(fx.froms) != "[0 1 2 3]" {
			t.Errorf("%d events over cursors %v, want 4 over [0 1 2 3]", n, fx.froms)
		}
		if len(fx.cancels) != 1 {
			t.Errorf("%d cancels, want 1", len(fx.cancels))
		}
	})
	t.Run("context canceled mid-stream", func(t *testing.T) {
		// The stream stalls after two events (no terminal frame, the
		// handler parks until the client goes away).
		fx, c := newStreamFixture(t, sweepFrames[:3], nil)
		ctx, cancel := context.WithCancel(obs.WithRequestID(context.Background(), "rid-follow"))
		defer cancel()
		err := c.Follow(ctx, "job0001", func(ev Event) error {
			if ev.Seq == 2 {
				cancel()
			}
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		// The cancel runs on a detached context that keeps the values.
		if len(fx.cancels) != 1 || fx.cancels[0].Get(obs.RequestIDHeader) != "rid-follow" {
			t.Errorf("cancels = %v, want one carrying the request ID", fx.cancels)
		}
	})
	t.Run("events endpoint refuses", func(t *testing.T) {
		fx, c := newStreamFixture(t, sweepFrames, nil)
		err := c.Follow(context.Background(), "gone", func(Event) error { return nil })
		var se *StatusError
		if !errors.As(err, &se) || se.Code != http.StatusNotFound || se.Message != "jobs: no such job" {
			t.Fatalf("err = %v, want a 404 StatusError with the server's message", err)
		}
		if !strings.Contains(err.Error(), "GET /v1/jobs/gone/events") {
			t.Errorf("error %q does not name the endpoint", err)
		}
		if len(fx.froms) != 0 {
			t.Errorf("a refused attach was retried: %v", fx.froms)
		}
	})
}

// TestClientFrameBound: one frame past the per-frame bound fails the
// stream instead of buffering without limit.
func TestClientFrameBound(t *testing.T) {
	huge := `{"seq":1,"type":"cell","job":"job0001","cell":{"index":0,"error":"` + strings.Repeat("x", maxFrameBytes) + `"}}`
	fx, c := newStreamFixture(t, []string{huge}, nil)
	err := c.Follow(context.Background(), "job0001", func(Event) error {
		t.Error("oversized frame delivered")
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "token too long") {
		t.Fatalf("err = %v, want the scanner's bound", err)
	}
	if len(fx.froms) != streamReconnects+1 {
		t.Errorf("%d attaches, want %d", len(fx.froms), streamReconnects+1)
	}
}

// TestClientResources covers the request/response verbs: typed decode
// plus the verbatim body, cancel, and refusals as StatusError carrying
// code, Retry-After and the server's message.
func TestClientResources(t *testing.T) {
	_, c := newStreamFixture(t, sweepFrames, nil)
	ctx := context.Background()

	st, raw, err := c.Status(ctx, "job0001")
	if err != nil || st.State != StateRunning || len(st.Cells) != 1 || !strings.Contains(string(raw), `"last_seq":2`) {
		t.Errorf("Status = %+v, raw %s, err %v", st, raw, err)
	}
	list, raw, err := c.List(ctx)
	if err != nil || len(list) != 2 || list[1].ID != "job0000" || !strings.HasPrefix(string(raw), `{"jobs":[`) {
		t.Errorf("List = %+v, raw %s, err %v", list, raw, err)
	}
	if st, err := c.Cancel(ctx, "job0001"); err != nil || st.State != StateCanceled {
		t.Errorf("Cancel = %+v, %v", st, err)
	}
	var se *StatusError
	if _, _, err := c.Status(ctx, "nope"); !errors.As(err, &se) || se.Code != http.StatusNotFound ||
		err.Error() != "GET /v1/jobs/nope: HTTP 404: jobs: no such job" {
		t.Errorf("Status(nope) err = %v", err)
	}

	busy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/jobs":
			w.Header().Set("Retry-After", "7")
			http.Error(w, "queue full, plain text", http.StatusTooManyRequests)
		case "/v1/stats":
			fmt.Fprint(w, `{"version":`) // truncated JSON
		}
	}))
	defer busy.Close()
	bc := &Client{Base: busy.URL, HTTP: busy.Client()}
	_, err = bc.Create(ctx, []byte(`{}`))
	if !errors.As(err, &se) || se.Code != http.StatusTooManyRequests || se.RetryAfter != "7" ||
		se.Message != "queue full, plain text" {
		t.Errorf("Create on a saturated server: err = %v (%+v)", err, se)
	}
	var out struct{ Version string }
	if _, err := bc.GetJSON(ctx, "/v1/stats", &out); err == nil || errors.As(err, &se) && se.Code == http.StatusOK {
		t.Errorf("truncated body: err = %v, want a plain decode error", err)
	}

	// A 202 without an id is a broken server, not a job.
	noID := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		fmt.Fprint(w, `{}`)
	}))
	defer noID.Close()
	if _, err := (&Client{Base: noID.URL, HTTP: noID.Client()}).Create(ctx, []byte(`{}`)); err == nil || errors.As(err, &se) {
		t.Errorf("id-less 202: err = %v, want a plain error", err)
	}

	// A dead server is a transport error, never a StatusError.
	dead := &Client{Base: "http://127.0.0.1:1", HTTP: &http.Client{}}
	if _, err := dead.Create(ctx, []byte(`{}`)); err == nil || errors.As(err, &se) {
		t.Errorf("dead server: err = %v, want a transport error", err)
	}
	if _, _, err := (&Client{Base: "http://bad url", HTTP: &http.Client{}}).List(ctx); err == nil {
		t.Error("malformed base URL accepted")
	}
}

// TestClientStampsContext: the context's request ID and span ride every
// request, and Timeout bounds the short round trips.
func TestClientStampsContext(t *testing.T) {
	fx, c := newStreamFixture(t, sweepFrames, nil)
	tracer := obs.NewTracer("test", 4)
	ctx, sp := tracer.StartSpan(obs.WithRequestID(context.Background(), "rid-1"), "dispatch")
	defer sp.End()
	if _, err := c.Create(ctx, []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if err := c.Follow(ctx, "job0001", func(Event) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if len(fx.requests) != 2 {
		t.Fatalf("%d requests, want create + attach", len(fx.requests))
	}
	for i, h := range fx.requests {
		if h.Get(obs.RequestIDHeader) != "rid-1" {
			t.Errorf("request %d: request ID %q", i, h.Get(obs.RequestIDHeader))
		}
		if sc, ok := obs.ParseTraceparent(h.Get("traceparent")); !ok || sc.TraceID != sp.Context().TraceID {
			t.Errorf("request %d: traceparent %q does not continue the span's trace", i, h.Get("traceparent"))
		}
	}

	stall := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { <-stall }))
	defer slow.Close()
	defer close(stall)
	sc := &Client{Base: slow.URL, HTTP: slow.Client(), Timeout: 20 * time.Millisecond}
	if _, _, err := sc.List(context.Background()); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("stalled server: err = %v, want the Timeout to fire", err)
	}
}
