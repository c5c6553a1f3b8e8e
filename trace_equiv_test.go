package eole_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"eole"
)

// TestTraceReplayByteIdenticalReports is the correctness bar of the
// trace subsystem: for every named configuration, a trace-driven run
// must produce a byte-identical Report (including the raw counter
// set) to the execute-driven run of the same (config, workload,
// warmup, measure). The core pulls µ-ops from its source strictly in
// program order, so equality of the source stream implies equality of
// the whole simulation.
func TestTraceReplayByteIdenticalReports(t *testing.T) {
	const (
		warmup  = 3_000
		measure = 12_000
	)
	workloads := []string{"gzip", "mcf", "namd", "hmmer"}
	for _, wlName := range workloads {
		w, err := eole.WorkloadByName(wlName)
		if err != nil {
			t.Fatal(err)
		}
		tr := eole.RecordTrace(w, warmup+measure+eole.TraceSlack)
		for _, cfgName := range eole.ConfigNames() {
			t.Run(wlName+"/"+cfgName, func(t *testing.T) {
				cfg, err := eole.NamedConfig(cfgName)
				if err != nil {
					t.Fatal(err)
				}
				exec, err := eole.Simulate(cfg, w, warmup, measure)
				if err != nil {
					t.Fatal(err)
				}
				replay, err := eole.Simulate(cfg, w, warmup, measure, eole.WithReplay(tr))
				if err != nil {
					t.Fatal(err)
				}
				be, err := json.Marshal(exec)
				if err != nil {
					t.Fatal(err)
				}
				br, err := json.Marshal(replay)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(be, br) {
					t.Errorf("trace-driven report differs from execute-driven:\nexec:   %s\nreplay: %s", be, br)
				}
			})
		}
	}
}

// TestWithReplayRejectsWrongWorkload checks that NewSimulator refuses
// a trace recorded from a different workload instead of silently
// simulating the wrong stream.
func TestWithReplayRejectsWrongWorkload(t *testing.T) {
	wa, err := eole.WorkloadByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	wb, err := eole.WorkloadByName("mcf")
	if err != nil {
		t.Fatal(err)
	}
	tr := eole.RecordTrace(wa, 1_000)
	cfg, err := eole.NamedConfig("EOLE_4_64")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eole.NewSimulator(cfg, wb, eole.WithReplay(tr)); err == nil {
		t.Fatal("NewSimulator accepted a trace from another workload")
	}
}

// TestTraceDriven checks the source-selection reporting.
func TestTraceDriven(t *testing.T) {
	w, err := eole.WorkloadByName("gzip")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := eole.NamedConfig("Baseline_6_64")
	if err != nil {
		t.Fatal(err)
	}
	sim, err := eole.NewSimulator(cfg, w)
	if err != nil {
		t.Fatal(err)
	}
	if sim.TraceDriven() {
		t.Fatal("default simulator reports trace-driven")
	}
	sim, err = eole.NewSimulator(cfg, w, eole.WithReplay(eole.RecordTrace(w, 1_000)))
	if err != nil {
		t.Fatal(err)
	}
	if !sim.TraceDriven() {
		t.Fatal("replay simulator reports execute-driven")
	}
}

// reportJSON is the byte form two runs of one cell must agree in.
func reportJSON(t *testing.T, r *eole.Report) []byte {
	t.Helper()
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSampledSeekingReplayByteIdenticalReports is the same bar for
// sampled runs that skip: there the replay does not produce the
// skipped µ-ops at all — each skip is a seek to a chunk mark, and the
// run's cursor decodes privately throughout — and the report must still
// be the execute-driven one, byte for byte. Every window's skip is longer
// than both a trace chunk and the core's cancellation slice, so it
// reaches the trace as several Skip calls and lands mid-chunk.
func TestSampledSeekingReplayByteIdenticalReports(t *testing.T) {
	const (
		warmup  = 3_000
		measure = 6_000
	)
	spec := eole.SamplingSpec{Windows: 3, Skip: 9_000, Warm: 2_000}
	for _, wlName := range []string{"gzip", "mcf", "namd", "long-dram"} {
		w, err := eole.WorkloadByName(wlName)
		if err != nil {
			t.Fatal(err)
		}
		var tr *eole.Trace // one recording serves every config: they share the margin
		for _, cfgName := range eole.ConfigNames() {
			cfg, err := eole.NamedConfig(cfgName)
			if err != nil {
				t.Fatal(err)
			}
			need := eole.ReplayNeed(cfg, warmup, measure, &spec)
			if tr == nil {
				tr = eole.RecordTrace(w, need)
			}
			if !tr.CanServe(need) {
				t.Fatalf("%s: trace of %d µ-ops cannot serve %s's %d", wlName, tr.Count, cfgName, need)
			}
			exec, err := eole.Simulate(cfg, w, warmup, measure, eole.WithSampling(spec))
			if err != nil {
				t.Fatal(err)
			}
			replay, err := eole.Simulate(cfg, w, warmup, measure, eole.WithSampling(spec), eole.WithReplay(tr))
			if err != nil {
				t.Fatal(err)
			}
			if be, br := reportJSON(t, exec), reportJSON(t, replay); !bytes.Equal(be, br) {
				t.Errorf("%s/%s: sampled replay differs from execute-driven:\nexec:   %s\nreplay: %s", wlName, cfgName, be, br)
			}
		}
		if got := tr.DecodedUops(); got != 0 {
			t.Errorf("%s: 11 sampled replays left %d µ-ops decoded in the trace; a sampled run streams", wlName, got)
		}
	}
}

// TestSampledLongCellReplay runs the benchmark's sampled_long cell
// (see sweepBenchSpec) both ways over the recording a server makes for
// it, and holds the trace to its memory budget: the sampled schedule
// leaves nothing decoded — neither the 2M µ-ops it skips nor the 0.7M
// it warms and measures are ever held — and a full run over the same
// 2.88M-µ-op trace keeps only the chunks it reads itself.
func TestSampledLongCellReplay(t *testing.T) {
	const chunk = 4096 // internal/trace's chunkOps
	w, err := eole.WorkloadByName("long-dram")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := eole.NamedConfig("EOLE_4_64")
	if err != nil {
		t.Fatal(err)
	}
	need := eole.ReplayNeed(cfg, sweepBenchWarmup, sweepBenchMeasure, &sweepBenchSpec)
	const recorded = 11 << 18 // what simsvc rounds the need up to
	if need > recorded {
		t.Fatalf("the cell needs %d µ-ops, more than the %d recorded", need, recorded)
	}
	tr := eole.RecordTrace(w, recorded)

	exec, err := eole.Simulate(cfg, w, sweepBenchWarmup, sweepBenchMeasure, eole.WithSampling(sweepBenchSpec))
	if err != nil {
		t.Fatal(err)
	}
	replay, err := eole.Simulate(cfg, w, sweepBenchWarmup, sweepBenchMeasure, eole.WithSampling(sweepBenchSpec), eole.WithReplay(tr))
	if err != nil {
		t.Fatal(err)
	}
	if be, br := reportJSON(t, exec), reportJSON(t, replay); !bytes.Equal(be, br) {
		t.Errorf("sampled replay differs from execute-driven:\nexec:   %s\nreplay: %s", be, br)
	}
	if got := tr.DecodedUops(); got != 0 {
		t.Errorf("the sampled schedule left %d µ-ops decoded, want none", got)
	}
	if _, err := eole.Simulate(cfg, w, 10_000, 44_000, eole.WithReplay(tr)); err != nil {
		t.Fatal(err)
	}
	if got := tr.DecodedUops(); got > 14*chunk {
		t.Errorf("a 54K-µ-op full run over the same trace left %d µ-ops decoded, want at most 14 chunks", got)
	}
}
