package eole_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"

	"eole"
)

// Example shows the one-call API: warm up, measure, inspect.
func Example() {
	cfg, err := eole.NamedConfig("EOLE_4_64")
	if err != nil {
		log.Fatal(err)
	}
	w, err := eole.WorkloadByName("crafty")
	if err != nil {
		log.Fatal(err)
	}
	r, err := eole.Simulate(cfg, w, 10_000, 50_000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(r.Config, r.Benchmark, r.Committed >= 50_000)
	// Output: EOLE_4_64 crafty true
}

// ExampleNamedConfig resolves one of the paper's configurations.
func ExampleNamedConfig() {
	cfg, err := eole.NamedConfig("Baseline_VP_6_64")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(cfg.IssueWidth, cfg.IQSize, cfg.ValuePrediction, cfg.EarlyExecution)
	// Output: 6 64 true false
}

// ExampleConfig builds a custom machine by editing fields: a Config is
// plain data. The edits below turn the Table 1 baseline into EOLE_4_64
// field for field (LEWidth left 0 defaults to the commit width), so the
// result shares the named config's fingerprint — and therefore its
// cache entry in the batch service — while staying anonymous (labeled
// from the fingerprint).
func ExampleConfig() {
	cfg := eole.BaselineConfig() // Table 1 machine, no VP
	cfg.Name = ""
	cfg.IssueWidth, cfg.IQSize = 4, 64
	cfg.ValuePrediction, cfg.PredictorName = true, "VTAGE-2DStride"
	cfg.EarlyExecution, cfg.EEDepth = true, 1
	cfg.LateExecution, cfg.LEBranches = true, true
	if err := cfg.Validate(); err != nil {
		log.Fatal(err)
	}
	named, err := eole.NamedConfig("EOLE_4_64")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("anonymous:", cfg.Name == "")
	fmt.Println("same machine:", cfg.Fingerprint() == named.Fingerprint())
	fmt.Println("label prefix:", cfg.Label()[:7])
	// Output:
	// anonymous: true
	// same machine: true
	// label prefix: custom-
}

// ExampleGrid declares a Figure 10 style design-space sweep as data:
// a base config and a PRF-banking axis, cartesian-expanded into
// validated, distinctly-named configurations.
func ExampleGrid() {
	g := eole.Grid{
		BaseName: "EOLE_4_64",
		Axes: []eole.Axis{
			{Option: "PRFBanks", Values: []any{2, 4, 8}},
		},
	}
	cfgs, err := g.Configs()
	if err != nil {
		log.Fatal(err)
	}
	for _, c := range cfgs {
		fmt.Println(c.Name, c.PRF.Banks)
	}
	// Output:
	// EOLE_4_64_PRFBanks2 2
	// EOLE_4_64_PRFBanks4 4
	// EOLE_4_64_PRFBanks8 8
}

// ExampleWorkloadByName looks up a Table 3 benchmark.
func ExampleWorkloadByName() {
	w, err := eole.WorkloadByName("429.mcf")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(w.Short, w.FP, w.PaperIPC)
	// Output: mcf false 0.105
}

// ExampleSimulator_Measure separates warm-up from measurement.
func ExampleSimulator_Measure() {
	cfg, err := eole.NamedConfig("Baseline_6_64")
	if err != nil {
		log.Fatal(err)
	}
	w, err := eole.WorkloadByName("gzip")
	if err != nil {
		log.Fatal(err)
	}
	sim, err := eole.NewSimulator(cfg, w)
	if err != nil {
		log.Fatal(err)
	}
	sim.Run(5_000) // warm caches and predictors
	r := sim.Measure(20_000)
	fmt.Println(r.Benchmark, r.OffloadFraction == 0) // no EOLE on the baseline
	// Output: gzip true
}

// ExamplePracticalEOLEConfig builds the headline Figure 12 machine.
func ExamplePracticalEOLEConfig() {
	cfg := eole.PracticalEOLEConfig()
	fmt.Println(cfg.Name, cfg.PRF.Banks, cfg.PRF.LEVTReadPortsPerBank)
	// Output: EOLE_4_64_4ports_4banks 4 4
}

// ExampleSimulate runs the one-call API end to end.
func ExampleSimulate() {
	cfg, err := eole.NamedConfig("Baseline_VP_6_64")
	if err != nil {
		log.Fatal(err)
	}
	w, err := eole.WorkloadByName("vortex")
	if err != nil {
		log.Fatal(err)
	}
	r, err := eole.Simulate(cfg, w, 5_000, 20_000) // warmup, measured µ-ops
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(r.Config, r.Benchmark, r.Committed >= 20_000, r.IPC > 0)
	// Output: Baseline_VP_6_64 vortex true true
}

// ExampleReport_json shows that a Report marshals losslessly: the
// decoded copy re-marshals to the same bytes, raw counters included,
// so reports can be cached on disk or served over the wire.
func ExampleReport_json() {
	cfg, err := eole.NamedConfig("EOLE_4_64")
	if err != nil {
		log.Fatal(err)
	}
	w, err := eole.WorkloadByName("gzip")
	if err != nil {
		log.Fatal(err)
	}
	r, err := eole.Simulate(cfg, w, 5_000, 20_000)
	if err != nil {
		log.Fatal(err)
	}
	wire, err := json.Marshal(r)
	if err != nil {
		log.Fatal(err)
	}
	var decoded eole.Report
	if err := json.Unmarshal(wire, &decoded); err != nil {
		log.Fatal(err)
	}
	again, err := json.Marshal(&decoded)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(bytes.Equal(wire, again), decoded.Raw() == r.Raw())
	// Output: true true
}

// ExampleRecordTrace records a workload's µ-op stream once and
// replays it under two configurations; each replayed run is
// byte-identical to its execute-driven counterpart.
func ExampleRecordTrace() {
	w, err := eole.WorkloadByName("crafty")
	if err != nil {
		log.Fatal(err)
	}
	const warmup, measure = 5_000, 20_000
	tr := eole.RecordTrace(w, warmup+measure+eole.TraceSlack) // interpret once
	fmt.Println(tr.Workload, tr.CanServe(warmup+measure+eole.TraceSlack))

	for _, name := range []string{"Baseline_VP_6_64", "EOLE_4_64"} {
		cfg, err := eole.NamedConfig(name)
		if err != nil {
			log.Fatal(err)
		}
		replayed, err := eole.Simulate(cfg, w, warmup, measure, eole.WithReplay(tr))
		if err != nil {
			log.Fatal(err)
		}
		executed, err := eole.Simulate(cfg, w, warmup, measure)
		if err != nil {
			log.Fatal(err)
		}
		a, _ := json.Marshal(replayed)
		b, _ := json.Marshal(executed)
		fmt.Println(name, bytes.Equal(a, b))
	}
	// Output:
	// crafty true
	// Baseline_VP_6_64 true
	// EOLE_4_64 true
}

// ExampleWithSampling runs a sampled simulation: functional-warming
// fast-forwards between short detailed windows, and the report
// carries a 95% confidence interval on IPC.
func ExampleWithSampling() {
	cfg, err := eole.NamedConfig("EOLE_4_64")
	if err != nil {
		log.Fatal(err)
	}
	w, err := eole.WorkloadByName("long-l1") // phased long-* workload
	if err != nil {
		log.Fatal(err)
	}
	spec := eole.SamplingSpec{Windows: 4, Warm: 20_000}
	r, err := eole.Simulate(cfg, w, 20_000, 40_000, eole.WithSampling(spec))
	if err != nil {
		log.Fatal(err)
	}
	// The estimate's claim is r.IPC ± r.IPCCI.
	fmt.Println(r.Benchmark, r.Sampled, r.SampleWindows, r.IPC > 0, r.IPCCI >= 0)
	// Output: long-l1 true 4 true true
}
