package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// env is where a benchmark process keeps what it builds and writes:
// binaries and scratch under .bench_build/ at the checkout root,
// reports under bench/out/.
type env struct {
	root    string // checkout root (the directory that holds bench/)
	eoled   string // built eoled binary
	scratch string // per-process scratch dir, removed on exit
	outDir  string
	spawned []int // pid of every eoled started, for the leak check
}

// newEnv finds the checkout root from the working directory (the root
// itself or bench/), builds eoled there and makes a scratch directory.
// The build is never inside a timed region.
func newEnv() (*env, error) {
	wd, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	root := wd
	if _, err := os.Stat(filepath.Join(root, "cmd", "eoled")); err != nil {
		root = filepath.Dir(wd)
		if _, err := os.Stat(filepath.Join(root, "cmd", "eoled")); err != nil {
			return nil, fmt.Errorf("no cmd/eoled beside or above %s: run from the checkout root or from bench/", wd)
		}
	}
	e := &env{
		root:   root,
		eoled:  filepath.Join(root, ".bench_build", "bin", "eoled"),
		outDir: filepath.Join(root, "bench", "out"),
	}
	build := exec.Command("go", "build", "-o", e.eoled, "./cmd/eoled")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("build eoled: %v\n%s", err, out)
	}
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return nil, err
	}
	tmp := filepath.Join(root, ".bench_build", "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	if e.scratch, err = os.MkdirTemp(tmp, "run-"); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *env) close() { os.RemoveAll(e.scratch) }

// proc is one spawned eoled.
type proc struct {
	cmd    *exec.Cmd
	addr   string        // host:port
	exited chan struct{} // closed once Wait has returned
}

func (p *proc) url() string { return "http://" + p.addr }

// freeAddr asks the kernel for an unused loopback port. The listener
// is closed before eoled binds it, so another process could take the
// port in between; startProc retries on that.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startProc spawns eoled on addr with stderr to a file in the scratch
// directory and waits until /v1/healthz answers 200.
func (e *env) startProc(ctx context.Context, addr string, args ...string) (*proc, error) {
	logf := filepath.Join(e.scratch, "eoled-"+strings.ReplaceAll(addr, ":", "_")+".log")
	lf, err := os.Create(logf)
	if err != nil {
		return nil, err
	}
	defer lf.Close() // the child holds its own descriptor
	cmd := exec.Command(e.eoled, append([]string{"-addr", addr, "-log-level", "warn"}, args...)...)
	cmd.Stderr = lf
	cmd.Dir = e.scratch
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	e.spawned = append(e.spawned, cmd.Process.Pid)
	p := &proc{cmd: cmd, addr: addr, exited: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a stopped server says nothing
		close(p.exited)
	}()
	deadline := time.Now().Add(20 * time.Second)
	for {
		if err := getJSON(ctx, p.url()+"/v1/healthz", nil); err == nil {
			return p, nil
		}
		select {
		case <-p.exited:
			tail, _ := os.ReadFile(logf)
			return nil, fmt.Errorf("eoled on %s exited during start-up: %s", addr, bytes.TrimSpace(tail))
		case <-ctx.Done():
			p.stop()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			p.stop()
			return nil, fmt.Errorf("eoled on %s not healthy after 20s", addr)
		}
	}
}

// stop ends the process and waits for it: SIGTERM first (eoled drains
// and exits), SIGKILL if it has not gone within 5 s.
func (p *proc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM) // fails only if already gone
	select {
	case <-p.exited:
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.exited
	}
}

// fleet is the eoled processes of one workload: one server, or a
// coordinator (first) and its workers.
type fleet struct {
	procs   []*proc
	startMS float64 // spawn to every process healthy
}

func (f *fleet) base() string { return f.procs[0].url() }

func (f *fleet) stop() {
	for _, p := range f.procs {
		p.stop()
	}
}

// clusterWorkers is the worker count of cluster_sweep; the workers
// share nproc simulation slots between them.
const clusterWorkers = 2

// startFleet spawns the processes w needs, with nproc simulation
// workers in total. traceRing 0 turns tracing off.
func (e *env) startFleet(ctx context.Context, w workload, traceRing int) (*fleet, error) {
	var lastErr error
	for attempt := 0; attempt < 3; attempt++ { // a lost port race is retried
		f, err := e.tryStartFleet(ctx, w, traceRing)
		if err == nil {
			return f, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			break
		}
	}
	return nil, lastErr
}

func (e *env) tryStartFleet(ctx context.Context, w workload, traceRing int) (f *fleet, err error) {
	f = &fleet{}
	defer func() {
		if err != nil {
			f.stop()
		}
	}()
	ring := []string{"-trace-ring", strconv.Itoa(traceRing)}
	nproc := runtime.NumCPU()
	t0 := time.Now()
	if !w.Cluster {
		addr, err := freeAddr()
		if err != nil {
			return f, err
		}
		p, err := e.startProc(ctx, addr, append(ring, "-parallelism", strconv.Itoa(nproc))...)
		if err != nil {
			return f, err
		}
		f.procs = []*proc{p}
		f.startMS = ms(time.Since(t0))
		return f, nil
	}
	// Coordinator and workers name each other on the command line, so
	// all ports are chosen before anything starts. Workers first: the
	// coordinator probes them as soon as it is up.
	addrs := make([]string, 1+clusterWorkers)
	for i := range addrs {
		if addrs[i], err = freeAddr(); err != nil {
			return f, err
		}
	}
	for _, a := range addrs[1:] {
		p, err := e.startProc(ctx, a, append(ring, "-worker", "-parallelism", strconv.Itoa(max(1, nproc/clusterWorkers)),
			"-artifact-peer", "http://"+addrs[0])...)
		if err != nil {
			return f, err
		}
		f.procs = append(f.procs, p)
	}
	coord, err := e.startProc(ctx, addrs[0], append(ring, "-parallelism", "1", "-peers", strings.Join(addrs[1:], ","))...)
	if err != nil {
		return f, err
	}
	f.procs = append([]*proc{coord}, f.procs...)
	// Ready once the coordinator has probed every worker healthy.
	deadline := time.Now().Add(20 * time.Second)
	for {
		var st struct {
			Workers []struct {
				State   string `json:"state"`
				Version string `json:"version"`
			} `json:"workers"`
		}
		if err := getJSON(ctx, coord.url()+"/v1/cluster/workers", &st); err != nil {
			return f, err
		}
		healthy := 0
		for _, ws := range st.Workers {
			if ws.State == "healthy" && ws.Version != "" {
				healthy++
			}
		}
		if healthy == clusterWorkers {
			break
		}
		if time.Now().After(deadline) {
			return f, errors.New("cluster workers not healthy after 20s")
		}
		time.Sleep(5 * time.Millisecond)
	}
	f.startMS = ms(time.Since(t0))
	return f, nil
}

// getJSON GETs url and decodes a 200 body into v (nil discards it).
func getJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", url, resp.StatusCode, bytes.TrimSpace(body))
	}
	if v == nil {
		return nil
	}
	return json.Unmarshal(body, v)
}

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat:
// 100 on every Linux architecture Go runs on.
const clockTick = 100

// parseStatCPU returns utime+stime in milliseconds from the contents
// of /proc/<pid>/stat. The command name (field 2) may hold spaces and
// parentheses, so fields are counted from the last ')'.
func parseStatCPU(stat string) (float64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, errors.New("proc stat: no command field")
	}
	f := strings.Fields(stat[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, errors.New("proc stat: too few fields")
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, fmt.Errorf("proc stat: %w", err)
	}
	return float64(ut+st) * 1000 / clockTick, nil
}

// parseVmHWM returns the peak resident set in MiB from the contents of
// /proc/<pid>/status.
func parseVmHWM(status string) (float64, error) {
	sc := bufio.NewScanner(strings.NewReader(status))
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: odd VmHWM line %q", sc.Text())
		}
		kb, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc status: %w", err)
		}
		return float64(kb) / 1024, nil
	}
	return 0, errors.New("proc status: no VmHWM line")
}

// cpuMS sums the CPU time every process of the fleet has used.
func (f *fleet) cpuMS() (float64, error) { return f.sumProc("stat", parseStatCPU) }

// peakRSSMB sums the peak resident sets of the fleet.
func (f *fleet) peakRSSMB() (float64, error) { return f.sumProc("status", parseVmHWM) }

func (f *fleet) sumProc(file string, parse func(string) (float64, error)) (float64, error) {
	var sum float64
	for _, p := range f.procs {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/%s", p.cmd.Process.Pid, file))
		if err != nil {
			return 0, err
		}
		v, err := parse(string(b))
		if err != nil {
			return 0, err
		}
		sum += v
	}
	return sum, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
