package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"slices"
	"time"
)

// exactMetrics must read the same in every set of an A/A run: they are
// simulated results or counts over fixed op lists.
var exactMetrics = []string{
	"core.sim_cycles", "core.sim_ipc_geomean", "sample.ipc_rel_err",
	"simsvc.sims_run", "simsvc.cache_hits", "cluster.cells_dispatched",
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) does (the exclusive method), which is
// how the driver computes a metric's spread.
func quartiles(v []float64) (q1, q3 float64) {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, q3 := quartiles(v)
	return (q3 - q1) / median(v)
}

// worseBy is how much worse b is than a in the metric's direction, as
// a share of a; negative when b is better.
func worseBy(d metricDef, a, b float64) float64 {
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// cmdAA runs the whole benchmark in interleaved sets on the same build
// and compares the sets with each other: a gap between set medians
// beyond a metric's bound means the benchmark cannot carry that bound.
func cmdAA(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("bench aa", flag.ContinueOnError)
	sets := fs.Int("sets", 2, "sets to compare")
	runs := fs.Int("runs", 3, "runs per set; run i of every set uses seed+i")
	seed := fs.Int64("seed", 1, "first seed")
	seconds := fs.Int("seconds", defaultSeconds, "length of each measured window")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *sets < 2 || *runs < 1 {
		return fmt.Errorf("need -sets >= 2 and -runs >= 1")
	}
	e, err := newEnv()
	if err != nil {
		return err
	}
	defer e.close()
	window := time.Duration(*seconds) * time.Second
	h := newHost(e.root, *seed, window)
	table := workloadTable(false)
	// values[set][workload][metric] holds one value per run.
	values := make([]map[string]map[string][]float64, *sets)
	exact := make([]measurements, *sets)
	ok := true
	for run := 0; run < *runs; run++ {
		for set := 0; set < *sets; set++ {
			fmt.Fprintf(os.Stderr, "aa: run %d of set %d\n", run+1, set+1)
			// The traced run once per set: its exact counters are compared too.
			results, err := e.runAll(ctx, table, *seed+int64(run), window, contractSegments, run == 0, false)
			if err != nil {
				return err
			}
			if values[set] == nil {
				values[set] = map[string]map[string][]float64{}
			}
			for _, r := range results {
				if !r.correct() {
					ok = false
					r.print(os.Stdout)
				}
				if r.Traced {
					exact[set] = r.Metrics
					continue
				}
				if values[set][r.Workload] == nil {
					values[set][r.Workload] = map[string][]float64{}
				}
				for name, mm := range r.Metrics {
					values[set][r.Workload][name] = append(values[set][r.Workload][name], mm.Value)
				}
			}
		}
	}
	h.print(os.Stdout)
	fmt.Printf("\n%-14s %-16s %8s", "workload", "metric", "bound")
	for set := range values {
		fmt.Printf("  %12s %8s", fmt.Sprintf("median%d", set+1), "spread")
	}
	fmt.Printf("  %8s\n", "gap")
	for _, w := range table {
		for _, d := range endToEnd {
			fmt.Printf("%-14s %-16s %8.3f", w.Name, d.Name, d.Bound)
			first := median(values[0][w.Name][d.Name])
			gap := 0.0
			for set := range values {
				v := values[set][w.Name][d.Name]
				fmt.Printf("  %12.6g %8.4f", median(v), spread(v))
				gap = math.Max(gap, math.Abs(worseBy(d, first, median(v))))
			}
			verdict := ""
			if gap > d.Bound {
				verdict, ok = "  EXCEEDS BOUND", false
			}
			fmt.Printf("  %8.4f%s\n", gap, verdict)
		}
	}
	fmt.Println("\nexact metrics (must be identical in every set):")
	for _, name := range exactMetrics {
		fmt.Printf("  %-28s", name)
		for set := range exact {
			fmt.Printf(" %.17g", exact[set][name].Value)
			if exact[set][name] != exact[0][name] {
				ok = false
				fmt.Print(" DIFFERS")
			}
		}
		fmt.Println()
	}
	if !ok {
		return fmt.Errorf("a set gap exceeds its bound, an exact metric differs, or a check failed")
	}
	return nil
}
