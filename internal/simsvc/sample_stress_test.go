package simsvc

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"eole"
)

// sampleReq is testReq with a sampling spec attached: same config
// fingerprint and workload as its full twin, so the two contend for
// the same cache neighborhood and must stay isolated.
func sampleReq(t *testing.T, cfgName, wl string) Request {
	r := testReq(t, cfgName, wl)
	r.Sampling = &eole.SamplingSpec{Windows: 2, Warm: 1_000, DetailWarmup: 100}
	return r
}

// TestSampledRequestRuns: end-to-end through the service, a sampled
// request yields a sampled report and its own metrics line.
func TestSampledRequestRuns(t *testing.T) {
	s := newTestService(t, Options{Parallelism: 1})
	j, err := s.Submit(context.Background(), sampleReq(t, "EOLE_4_64", "gzip"))
	if err != nil {
		t.Fatal(err)
	}
	r, err := j.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Sampled || r.IPCCI < 0 {
		t.Errorf("report not sampled: %+v", r)
	}
	st := s.Stats()
	if st.SimsRun != 1 || st.SimsSampled != 1 {
		t.Errorf("stats: sims_run=%d sims_sampled=%d", st.SimsRun, st.SimsSampled)
	}
}

// TestSampledFullKeyIsolation: a sampled request and its full twin
// (identical fingerprint, workload, lengths) must have distinct keys,
// and distinct sampling specs must not collide either.
func TestSampledFullKeyIsolation(t *testing.T) {
	full := testReq(t, "EOLE_4_64", "gzip")
	sampled := sampleReq(t, "EOLE_4_64", "gzip")
	if KeyOf(full) == KeyOf(sampled) {
		t.Error("sampled and full requests share a key")
	}
	other := sampleReq(t, "EOLE_4_64", "gzip")
	other.Sampling = &eole.SamplingSpec{Windows: 3, Warm: 1_000, DetailWarmup: 100}
	if KeyOf(sampled) == KeyOf(other) {
		t.Error("different sampling specs share a key")
	}
	// Equal specs behind distinct pointers must share one.
	twin := sampleReq(t, "EOLE_4_64", "gzip")
	if KeyOf(sampled) != KeyOf(twin) {
		t.Error("identical sampled requests do not share a key")
	}
	// A spec that spells out the defaults resolves to the same plan
	// and must share the entry (keys hash the resolved schedule,
	// like configs are normalized before fingerprinting).
	spelled := sampleReq(t, "EOLE_4_64", "gzip")
	plan, err := spelled.Sampling.Plan(spelled.Measure)
	if err != nil {
		t.Fatal(err)
	}
	spelled.Sampling = &eole.SamplingSpec{
		Windows: plan.Windows, Skip: plan.Skip, Warm: plan.Warm,
		Measure: plan.Measure, DetailWarmup: plan.DetailWarmup,
	}
	if KeyOf(sampled) != KeyOf(spelled) {
		t.Error("default-equivalent sampling specs do not share a key")
	}
}

// TestSampledFullConcurrencyStress is the race-enabled stress mix:
// sampled sweeps, full sweeps, and mid-run cancellations hammering
// the same fingerprints through a small worker pool. Asserts that
// every completed job carries a report of its own mode (cache-entry
// isolation under contention) and that the service drains without
// leaking workers or leave hooks.
func TestSampledFullConcurrencyStress(t *testing.T) {
	before := runtime.NumGoroutine()
	s := newTestService(t, Options{Parallelism: 3})

	cfgs := []string{"EOLE_4_64", "Baseline_6_64"}
	wls := []string{"gzip", "hmmer"}
	const rounds = 6

	var wg sync.WaitGroup
	for worker := 0; worker < 8; worker++ {
		worker := worker
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(worker)))
			for round := 0; round < rounds; round++ {
				var reqs []Request
				sampled := worker%2 == 0
				for _, c := range cfgs {
					for _, w := range wls {
						if sampled {
							reqs = append(reqs, sampleReq(t, c, w))
						} else {
							reqs = append(reqs, testReq(t, c, w))
						}
					}
				}
				ctx := context.Background()
				var cancel context.CancelFunc = func() {}
				if worker%4 == 3 {
					// This worker cancels mid-run, sometimes before the
					// sweep can finish.
					ctx, cancel = context.WithTimeout(ctx, time.Duration(rng.Intn(3_000))*time.Microsecond)
				}
				sweep, err := s.SubmitSweep(ctx, reqs)
				if err != nil && err != context.DeadlineExceeded && ctx.Err() == nil {
					t.Errorf("worker %d: submit: %v", worker, err)
				}
				for i, j := range sweep.Jobs {
					r, err := j.Wait(context.Background())
					if err != nil {
						continue // canceled: allowed for the canceling workers
					}
					if r.Sampled != sampled {
						t.Errorf("worker %d: mode crossover — asked sampled=%v, got sampled=%v for %s/%s",
							worker, sampled, r.Sampled, reqs[i].Config.Name, reqs[i].Workload)
					}
				}
				cancel()
			}
		}()
	}
	wg.Wait()

	st := s.Stats()
	if st.SimsSampled == 0 || st.SimsSampled == st.SimsRun {
		t.Errorf("stress did not exercise both modes: sims_run=%d sims_sampled=%d", st.SimsRun, st.SimsSampled)
	}
	s.Close()

	// Workers and leave hooks must all be gone.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Errorf("goroutine leak after Close: %d before stress, %d after", before, runtime.NumGoroutine())
}
