package main

import (
	"encoding/json"
	"math/rand"

	"eole"
	"eole/internal/simsvc"
)

// kRange is how many distinct content addresses a run can draw before
// it wraps. k shifts µ-ops between warm-up and the measured region (or
// lengthens a sampled window's skip), so every op of a workload does
// the same work and records a trace of the same length, yet no op
// repeats a cached cell. k = 0 is kept for the ladder's fixed cells.
const kRange = 4096

// The cold cells: four configs the paper compares, on an ILP-bound, a
// DRAM-bound, an FP and a mixed workload. warmup+measure stays at
// coldUops for every k, which keeps the detailed work per cell and the
// recorded trace length (a power of two, 65536) constant.
var (
	coldConfigs   = []string{"Baseline_6_64", "Baseline_VP_6_64", "EOLE_6_64", "EOLE_4_64"}
	coldWorkloads = []string{"gzip", "mcf", "namd", "hmmer"}
)

const (
	coldWarmup = 10_000
	coldUops   = 50_000

	// The hot cells are sized for the set-up, not for the window: a
	// hit costs the same whatever the cell cost to simulate.
	hotWarmup  = 5_000
	hotMeasure = 35_000

	sampledConfig   = "EOLE_4_64"
	sampledWorkload = "long-dram"
	sampledWarmup   = 50_000
	sampledMeasure  = 160_000
	sampledSkip     = 250_000
)

// workload is one traffic shape. Every op of a workload has the same
// shape and cost; see README.md for why these four.
type workload struct {
	Name     string
	Why      string
	Endpoint string
	Cells    int // cells per op
	// PrimeOps is the fixed number of ops the set-up sends before the
	// window: fixed count, fixed work, so setup_s repeats.
	PrimeOps  int
	TracedOps int
	Cluster   bool
	// SameOp: every op is byte-identical (hot_sweep), so every body
	// must hash to the prime's.
	SameOp bool
	// VerifyCells is how many cells of a sampled op are simulated
	// again in-process after the window.
	VerifyCells int
	// Op builds the request for one k.
	Op func(k int) op
}

// workloadTable returns the four workloads. The smoke table keeps the
// shapes and shrinks everything else (fewer cells, primes and traced
// ops), so a test can walk the whole path in seconds.
func workloadTable(smoke bool) []workload {
	cfgs, wls := coldConfigs, coldWorkloads
	hotCfgs, hotWls := eole.ConfigNames(), eole.WorkloadNames()
	prime, hotPrime, traced, hotTraced := 8, 40, 8, 200
	if smoke {
		cfgs, wls = cfgs[2:], wls[:2]
		hotCfgs, hotWls = hotCfgs[:2], hotWls[:3]
		prime, hotPrime, traced, hotTraced = 2, 3, 2, 5
	}
	cold := sweepOp(cfgs, wls, coldWarmup, coldUops-coldWarmup, true)
	return []workload{
		{
			Name:     "cold_sweep",
			Why:      "16 never-seen cells per op on one eoled: internal/core does over 90% of the work (trace replay, result-cache writes), platform work must show nothing",
			Endpoint: "/v1/sweep", Cells: len(cfgs) * len(wls), PrimeOps: prime, TracedOps: traced, VerifyCells: 3, Op: cold,
		},
		{
			Name:     "hot_sweep",
			Why:      "the same 209-cell sweep answered from cache: simsvc result map, eole.Report JSON encode and eoled HTTP do all of it, core work must show nothing",
			Endpoint: "/v1/sweep", Cells: len(hotCfgs) * len(hotWls), PrimeOps: hotPrime, TracedOps: hotTraced, SameOp: true,
			Op: sweepOp(hotCfgs, hotWls, hotWarmup, hotMeasure, false),
		},
		{
			Name:     "sampled_long",
			Why:      "one sampled long-dram cell per op: core.Warm/Skip and the prog interpreter dominate, the 2.4M-uop stream exceeds the trace ceiling so replay is bypassed",
			Endpoint: "/v1/simulate", Cells: 1, PrimeOps: prime + prime/2, TracedOps: traced, VerifyCells: 1, Op: sampledOp,
		},
		{
			Name:     "cluster_sweep",
			Why:      "the cold_sweep op through a coordinator and 2 workers at equal total parallelism: the difference to cold_sweep is the platform tax (cluster, jobs, artifact peer, two HTTP hops)",
			Endpoint: "/v1/cluster/sweep", Cells: len(cfgs) * len(wls), PrimeOps: prime, TracedOps: traced, Cluster: true, VerifyCells: 3, Op: cold,
		},
	}
}

func workloadByName(table []workload, name string) (workload, bool) {
	for _, w := range table {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// op is one request and what the reply must hold.
type op struct {
	K    int
	Body []byte
	Reqs []simsvc.Request // the cells, in response order
}

// sweepBody and simulateBody are eoled's request wire forms.
type sweepBody struct {
	Configs   []string `json:"configs"`
	Workloads []string `json:"workloads"`
	Warmup    uint64   `json:"warmup"`
	Measure   uint64   `json:"measure"`
}

type simulateBody struct {
	Config   string             `json:"config"`
	Workload string             `json:"workload"`
	Warmup   uint64             `json:"warmup"`
	Measure  uint64             `json:"measure"`
	Sampling *eole.SamplingSpec `json:"sampling"`
}

func mustConfigs(names []string) []eole.Config {
	cfgs := make([]eole.Config, len(names))
	for i, n := range names {
		c, err := eole.NamedConfig(n)
		if err != nil {
			panic(err) // names are constants of this file
		}
		cfgs[i] = c
	}
	return cfgs
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// sweepOp returns the builder of a configs × workloads sweep. k is
// added to the warm-up; with fixedTotal it is also taken from the
// measured region, so that warmup+measure — the detailed work per cell
// and the trace length — is the same for every k.
func sweepOp(cfgNames, wls []string, warmup, measure uint64, fixedTotal bool) func(k int) op {
	cfgs := mustConfigs(cfgNames)
	return func(k int) op {
		wu, me := warmup+uint64(k), measure
		if fixedTotal {
			me -= uint64(k)
		}
		return op{
			K:    k,
			Body: mustJSON(sweepBody{cfgNames, wls, wu, me}),
			Reqs: simsvc.Cross(cfgs, wls, wu, me),
		}
	}
}

func sampledOp(k int) op {
	spec := &eole.SamplingSpec{Windows: 8, Skip: uint64(sampledSkip + k), Warm: 30_000}
	cfg := mustConfigs([]string{sampledConfig})[0]
	return op{
		K:    k,
		Body: mustJSON(simulateBody{sampledConfig, sampledWorkload, sampledWarmup, sampledMeasure, spec}),
		Reqs: []simsvc.Request{{Config: cfg, Workload: sampledWorkload, Warmup: sampledWarmup, Measure: sampledMeasure, Sampling: spec}},
	}
}

// opList is the seeded op sequence of one workload: op i of a run is
// at(i). The same seed gives the same sequence.
type opList struct {
	w    workload
	perm []int // seeded permutation of 1..kRange
	same op    // SameOp workloads: the one op
}

func newOpList(w workload, seed int64) *opList {
	rng := rand.New(rand.NewSource(seed))
	l := &opList{w: w, perm: rng.Perm(kRange)}
	for i := range l.perm {
		l.perm[i]++
	}
	if w.SameOp {
		l.same = w.Op(l.perm[0])
	}
	return l
}

// at returns op i. Past kRange ops the sequence wraps and ops start to
// hit the cache; no window on any machine seen so far comes near it.
func (l *opList) at(i int) op {
	if l.w.SameOp {
		return l.same
	}
	return l.w.Op(l.perm[i%kRange])
}
