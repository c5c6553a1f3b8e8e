package jobs

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"eole/internal/simsvc"
)

// TestJobConcurrencyStress is the race-enabled lifecycle mix:
// concurrent creators, live readers, late readers and readers that walk
// away mid-log, all against one registry on a small worker pool, with
// Close arriving while some jobs still run. Every log must stay
// contiguous and end with EventDone, and Close must leave no runner or
// waiter behind.
func TestJobConcurrencyStress(t *testing.T) {
	before := runtime.NumGoroutine()
	svc, err := simsvc.New(simsvc.Options{Parallelism: 3})
	if err != nil {
		t.Fatal(err)
	}
	g := New(svc, Options{})

	var reqs []simsvc.Request
	for _, c := range []string{"EOLE_4_64", "Baseline_6_64"} {
		for _, w := range []string{"gzip", "hmmer"} {
			reqs = append(reqs, req(t, c, w, 3_000))
		}
	}
	const workers, rounds = 8, 5
	var wg sync.WaitGroup
	for worker := 0; worker < workers; worker++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				j, err := g.Create(context.Background(), reqs)
				if errors.Is(err, ErrClosed) {
					return
				}
				if err != nil {
					t.Errorf("worker %d: create: %v", worker, err)
					return
				}
				var evs []Event
				switch worker % 3 {
				case 0:
					// Live reader: contiguity across wakeups.
					evs = follow(t, j)
				case 1:
					// Walks away after the first wakeup, like a dropped
					// client, then attaches late and reads it all.
					_, changed := j.EventsSince(0)
					<-changed
					evs = follow(t, j)
				case 2:
					// The last round is cut short by Close.
					if worker == 2 && round == rounds-1 {
						g.Close()
					}
					evs = follow(t, j)
				}
				if len(evs) == 0 {
					return
				}
				last := evs[len(evs)-1]
				if last.Type != EventDone || last.Completed+last.Failed != len(evs)-1 {
					t.Errorf("worker %d: log ends %+v after %d events", worker, last, len(evs))
				}
				if !last.Canceled && (len(evs) != len(reqs)+1 || last.Failed != 0) {
					t.Errorf("worker %d: uncanceled job logged %d events, %d failed", worker, len(evs), last.Failed)
				}
			}
		}()
	}
	wg.Wait()
	g.Close()
	svc.Close()

	// Runners, cell waiters and the service's own workers must all be
	// gone once both layers are closed.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Errorf("goroutine leak after Close: %d before stress, %d after", before, runtime.NumGoroutine())
}
