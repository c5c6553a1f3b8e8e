// Command bench is the repository's benchmark: four workloads driven
// closed-loop against real eoled processes over loopback HTTP, one
// traced pass per workload, and an in-process ladder that attributes
// the end-to-end cost to layers. See README.md.
//
//	bench --workload W --seed N --seconds S --trace 0|1   one run, result as a JSON last line (BENCHMARK.json's command)
//	bench run [-seed N] [-seconds S] [-smoke]             all four workloads, then the traced run
//	bench aa  [-sets 2] [-runs 3] [-seed N] [-seconds S]  the benchmark against itself: is it steady enough for its bounds?
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"
)

// defaultSeconds is the window of run and aa, the run_seconds of
// BENCHMARK.json: the longest that fits the driver's total-time cap
// with four workloads and three set-ups per run.
const defaultSeconds = 20

// contractSegments is how many segments a run is cut into: so many
// set-ups, fleets and windows of seconds/contractSegments each.
const contractSegments = 3

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	var err error
	switch {
	case len(os.Args) > 1 && os.Args[1] == "run":
		err = cmdRun(ctx, os.Args[2:])
	case len(os.Args) > 1 && os.Args[1] == "aa":
		err = cmdAA(ctx, os.Args[2:])
	default:
		err = cmdOne(ctx, os.Args[1:])
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errIncorrect is returned once results have been printed and at least
// one op or check failed: the exit status must say so.
var errIncorrect = errors.New("correctness checks failed")

// cmdOne is the driver's entry point: one workload, one run.
func cmdOne(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "seed of the op list")
	seconds := fs.Int("seconds", defaultSeconds, "length of the measured window")
	traced := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from traced passes and the ladder")
	if err := fs.Parse(args); err != nil {
		return err
	}
	table := workloadTable(false)
	w, ok := workloadByName(table, *name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds %d: need at least 1", *seconds)
	}
	e, err := newEnv()
	if err != nil {
		return err
	}
	defer e.close()
	window := time.Duration(*seconds) * time.Second
	h := newHost(e.root, *seed, window)
	var res *result
	if *traced == 1 {
		res, err = e.runTraced(ctx, table, *seed, false)
	} else {
		res, err = e.runEndToEnd(ctx, w, *seed, window, contractSegments)
	}
	if err != nil {
		return err
	}
	h.print(os.Stdout)
	res.print(os.Stdout)
	fmt.Println(res.resultLine())
	if !res.correct() {
		return errIncorrect
	}
	return nil
}

// cmdRun runs the whole benchmark once and prints every metric.
func cmdRun(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("bench run", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "seed of the op lists")
	seconds := fs.Int("seconds", defaultSeconds, "length of each measured window")
	smoke := fs.Bool("smoke", false, "2 s windows, small primes and cell sets: walks the whole path in seconds, measures nothing")
	if err := fs.Parse(args); err != nil {
		return err
	}
	window, segments := time.Duration(*seconds)*time.Second, contractSegments
	if *smoke {
		window, segments = 2*time.Second, 1
	}
	e, err := newEnv()
	if err != nil {
		return err
	}
	defer e.close()
	h := newHost(e.root, *seed, window)
	results, err := e.runAll(ctx, workloadTable(*smoke), *seed, window, segments, true, *smoke)
	if err != nil {
		return err
	}
	h.print(os.Stdout)
	ok := true
	for _, r := range results {
		r.print(os.Stdout)
		ok = ok && r.correct()
	}
	fmt.Printf("\nwrote %s/trace-*.json and budget.md\n", e.outDir)
	if !ok {
		return errIncorrect
	}
	return nil
}

// runAll measures the four workloads one after another and, when
// asked, the traced run after them.
func (e *env) runAll(ctx context.Context, table []workload, seed int64, window time.Duration, segments int, traced, smoke bool) ([]*result, error) {
	var results []*result
	for _, w := range table {
		r, err := e.runEndToEnd(ctx, w, seed, window, segments)
		if err != nil {
			return nil, err
		}
		results = append(results, r)
	}
	if traced {
		r, err := e.runTraced(ctx, table, seed, smoke)
		if err != nil {
			return nil, err
		}
		results = append(results, r)
	}
	return results, nil
}
