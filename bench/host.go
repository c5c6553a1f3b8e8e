package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// host is the fingerprint printed with every result: enough to tell
// whether two outputs may be compared.
type host struct {
	CPU        string
	NProc      int
	GoMaxProcs int
	GoVersion  string
	Commit     string
	Seed       int64
	Window     time.Duration
	LoadStart  float64
	LoadEnd    float64
}

func newHost(root string, seed int64, window time.Duration) *host {
	h := &host{
		CPU: "unknown", NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown", Seed: seed, Window: window, LoadStart: loadAvg(),
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// A driver's checkout is not a git repository: then "unknown" stays.
	git := exec.Command("git", "rev-parse", "--short", "HEAD")
	git.Dir = root
	if out, err := git.Output(); err == nil {
		h.Commit = strings.TrimSpace(string(out))
	}
	return h
}

// loadAvg is the 1-minute load average, or -1 where /proc has none.
func loadAvg() float64 {
	b, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return -1
	}
	f := strings.Fields(string(b))
	if len(f) == 0 {
		return -1
	}
	v, err := strconv.ParseFloat(f[0], 64)
	if err != nil {
		return -1
	}
	return v
}

// noisy reports a host that was already busy when the run started:
// its numbers are not a baseline.
func (h *host) noisy() bool { return h.LoadStart > 0.5*float64(h.NProc) }

func (h *host) print(w io.Writer) {
	h.LoadEnd = loadAvg()
	fmt.Fprintf(w, "host: cpu=%q nproc=%d gomaxprocs=%d go=%s commit=%s seed=%d window=%v load1=%.2f->%.2f noisy_host=%v\n",
		h.CPU, h.NProc, h.GoMaxProcs, h.GoVersion, h.Commit, h.Seed, h.Window, h.LoadStart, h.LoadEnd, h.noisy())
}
