package main

import (
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The sandboxes this benchmark runs in change speed under it: the
// same build measured 41k and then 25k cells/s on hot_sweep within
// five minutes, with setup_s (pure simulation) slowing by the same
// 39 %, and no steal time reported — a neighbour on the host's other
// hyperthreads. So while a set-up or a window runs, a speed meter
// times a fixed arithmetic kernel, which depends on nothing in this
// repository, in short bursts on one thread per CPU, against that
// thread's own CPU clock: being descheduled does not count, running
// slowly does. Times are then scaled to what they would have been at
// referenceRate. On a quiet machine of the authoring kind the scale is
// 1; README.md shows what it removes.

const (
	burstIters = 1 << 20 // about 1.3 ms of CPU
	burstEvery = 50 * time.Millisecond
	// referenceRate is the kernel's rate per CPU on the authoring
	// machine while a window runs and the host is quiet.
	referenceRate = 830e6
)

// burst runs the fixed kernel: eight independent xorshift chains with
// a multiply each, registers only. It is bound by the core's execution
// throughput, as the simulator is, so it slows down in step with the
// servers when a neighbour takes a share of the core: over 24 noisy
// windows of cold_sweep the servers' rate followed this kernel's with
// a log-log slope of 1.04 (correlation 0.97). A single dependent chain
// is latency-bound and lost half as much as the servers did (slope
// 2.4); kernels that walk a table (256 KiB, 8 MiB) followed no better,
// tripled the run-to-run spread and, sharing the servers' caches,
// lengthened their latency tail.
func burst(x uint64) uint64 {
	var s [8]uint64
	for i := range s {
		s[i] = x*uint64(2*i+3) + uint64(i)
	}
	var acc uint64
	for i := 0; i < burstIters/8; i++ {
		for j := range s {
			v := s[j]
			v ^= v << 13
			v ^= v >> 7
			v ^= v << 17
			s[j] = v
			acc += v * 0x9e3779b97f4a7c15
		}
	}
	return acc | 1
}

// threadCPU is the CPU time the calling OS thread has used.
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	// Cannot fail: the clock exists on every Linux and ts is valid.
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// speedMeter samples the machine's speed until it is read.
type speedMeter struct {
	stop  chan struct{}
	wg    sync.WaitGroup
	mu    sync.Mutex
	rates []float64
}

func startSpeedMeter() *speedMeter {
	m := &speedMeter{stop: make(chan struct{})}
	for g := 0; g < runtime.NumCPU(); g++ {
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			runtime.LockOSThread() // the CPU clock read is this thread's
			defer runtime.UnlockOSThread()
			x := uint64(88172645463325252)
			tick := time.NewTicker(burstEvery)
			defer tick.Stop()
			for {
				t0 := threadCPU()
				x = burst(x)
				rate := burstIters / (threadCPU() - t0).Seconds()
				m.mu.Lock()
				m.rates = append(m.rates, rate)
				m.mu.Unlock()
				select {
				case <-m.stop:
					return
				case <-tick.C:
				}
			}
		}()
	}
	return m
}

// read stops the meter and returns the mean speed since it started,
// relative to the reference: 0.6 means that what ran beside it took
// 1/0.6 times as long as it would have on the reference machine.
func (m *speedMeter) read() float64 {
	close(m.stop)
	m.wg.Wait()
	var sum float64
	for _, r := range m.rates {
		sum += r
	}
	return sum / float64(len(m.rates)) / referenceRate
}
