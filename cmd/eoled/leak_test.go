package main

import (
	"net/http"
	"runtime"
	"testing"
	"time"

	"eole/internal/simsvc"
)

// goroutineCheck notes the goroutine count now and returns a check for
// a cleanup to run once everything started since has been stopped: the
// count must come back down within a few seconds.
func goroutineCheck(tb testing.TB, what string) (check func()) {
	before := runtime.NumGoroutine()
	return func() {
		tb.Helper()
		// Not the code under test's: connections the test itself
		// (http.Post, a reverse proxy) left idle in the default transport.
		http.DefaultTransport.(*http.Transport).CloseIdleConnections()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if after := runtime.NumGoroutine(); after > before {
			tb.Errorf("goroutine leak: %d before %s, %d after Close", before, what, after)
		}
	}
}

// newTestService starts a service that is closed when the test ends,
// and checks then that nothing started since it outlives Close. Create
// it before any server in front of it, so those close first.
func newTestService(tb testing.TB, opts simsvc.Options) *simsvc.Service {
	tb.Helper()
	check := goroutineCheck(tb, "simsvc.New")
	svc, err := simsvc.New(opts)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		svc.Close()
		check()
	})
	return svc
}
