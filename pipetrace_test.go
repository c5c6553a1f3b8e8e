package eole

import (
	"math"
	"strings"
	"testing"

	"eole/internal/golden"
)

// tracedRun records the µ-ops with sequence numbers in [from, to] over
// the first run committed µ-ops.
func tracedRun(t *testing.T, cfgName, wl string, from, to, run uint64, opts ...SimOption) *PipeTrace {
	t.Helper()
	cfg, err := NamedConfig(cfgName)
	if err != nil {
		t.Fatal(err)
	}
	w, err := WorkloadByName(wl)
	if err != nil {
		t.Fatal(err)
	}
	pt := &PipeTrace{From: from, N: to - from + 1}
	sim, err := NewSimulator(cfg, w, append(opts, WithTracer(pt))...)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run(run)
	return pt
}

// summary counts the recorded events by stage.
func (p *PipeTrace) summary() map[Stage]int {
	out := map[Stage]int{}
	for _, r := range p.rows {
		for _, e := range r.events {
			out[e.stage]++
		}
	}
	return out
}

func render(p *PipeTrace) string {
	var b strings.Builder
	p.Render(&b)
	return b.String()
}

func TestPipeTraceCapturesLifecycle(t *testing.T) {
	pt := tracedRun(t, "Baseline_6_64", "crafty", 100, 140, 2_000)
	sum := pt.summary()
	for _, stage := range []Stage{StageFetch, StageRename, StageIssue, StageCommit} {
		if sum[stage] == 0 {
			t.Errorf("no %q events captured: %v", stageLetter[stage], sum)
		}
	}
	// Every traced µ-op fetches exactly once on the no-squash path.
	if sum[StageFetch] != 41 {
		t.Errorf("fetch events = %d, want 41", sum[StageFetch])
	}
	out := render(pt)
	if !strings.Contains(out, "pipetrace") || !strings.Contains(out, "|") {
		t.Fatalf("render malformed:\n%s", out)
	}
}

func TestPipeTraceShowsEOLEStages(t *testing.T) {
	pt := tracedRun(t, "EOLE_6_64", "art", 40_000, 40_200, 45_000)
	sum := pt.summary()
	if sum[StageEarly] == 0 {
		t.Error("art on EOLE must early-execute traced µ-ops")
	}
	if sum[StageLate] == 0 {
		t.Error("art on EOLE must late-execute traced µ-ops")
	}
	// Early/late-executed µ-ops never issue into the OoO engine, so
	// issue events must be fewer than commits.
	if sum[StageIssue] >= sum[StageCommit] {
		t.Errorf("issue=%d >= commit=%d; offload invisible", sum[StageIssue], sum[StageCommit])
	}
}

func TestPipeTraceOrderingInvariant(t *testing.T) {
	pt := tracedRun(t, "EOLE_4_64", "gzip", 5_000, 5_100, 10_000)
	for i, row := range pt.rows {
		var fetch, rename, commit uint64
		var sawCommit bool
		for _, e := range row.events {
			switch e.stage {
			case StageFetch:
				if fetch == 0 || e.cycle < fetch {
					fetch = e.cycle
				}
			case StageRename:
				rename = e.cycle
			case StageCommit:
				commit, sawCommit = e.cycle, true
			}
		}
		if !sawCommit {
			continue // still in flight at run end
		}
		if rename < fetch || commit < rename {
			t.Fatalf("seq %d: stage cycles out of order f=%d r=%d c=%d", pt.From+uint64(i), fetch, rename, commit)
		}
	}
}

func TestPipeTraceEmpty(t *testing.T) {
	pt := &PipeTrace{From: 10, N: 11}
	if out := render(pt); !strings.Contains(out, "no events") {
		t.Fatalf("empty trace render: %q", out)
	}
}

// TestPipeTraceGolden renders eolesim's default pipe trace window
// (EOLE_4_64, mcf, the 40 µ-ops fetched after 50 000 committed) the way
// eolesim -pipetrace does and compares it to the pinned output, which
// CI also diffs eolesim's own output against.
func TestPipeTraceGolden(t *testing.T) {
	cfg, _ := NamedConfig("EOLE_4_64")
	w, _ := WorkloadByName("mcf")
	pt := new(PipeTrace)
	sim, err := NewSimulator(cfg, w, WithTracer(pt))
	if err != nil {
		t.Fatal(err)
	}
	pt.From, pt.N = sim.Run(50_000).Raw().Fetched, 40
	sim.Run(40 + 2048)
	golden.Check(t, "testdata/pipetrace_EOLE_4_64_mcf.golden", []byte(render(pt)))
}

// A pipe trace does not depend on where the µ-ops come from: a
// simulator replaying a recorded trace (and reading its verdicts from
// the trace's prediction track) renders the same timeline as a live
// one.
func TestPipeTraceSameOnReplay(t *testing.T) {
	const from, to, run = 20_000, 20_060, 22_000
	w, _ := WorkloadByName("crafty")
	tr := RecordTrace(w, run+TraceSlack)
	live := tracedRun(t, "EOLE_4_64", "crafty", from, to, run)
	replayed := tracedRun(t, "EOLE_4_64", "crafty", from, to, run, WithReplay(tr))
	a, b := render(live), render(replayed)
	if a != b {
		t.Fatalf("live and replayed pipe traces differ:\nlive:\n%s\nreplayed:\n%s", a, b)
	}
	if rows := strings.Count(a, "\n") - 1; rows != to-from+1 {
		t.Fatalf("%d rows, want %d:\n%s", rows, to-from+1, a)
	}
}

type stageCount map[Stage]int

func (c stageCount) Window() (uint64, uint64) { return 0, math.MaxUint64 }

func (c stageCount) Event(_, _ uint64, _ Opcode, s Stage, _ uint64) { c[s]++ }

// A sampled simulator replaying a trace traces the µ-ops of its
// detailed windows.
func TestWithTracerOnSampledReplay(t *testing.T) {
	cfg, _ := NamedConfig("EOLE_4_64")
	w, _ := WorkloadByName("gzip")
	spec := SamplingSpec{Windows: 2, Skip: 1_000, Warm: 1_000}
	tr := RecordTrace(w, 20_000)
	count := stageCount{}
	r, err := Simulate(cfg, w, 1_000, 4_000, WithSampling(spec), WithReplay(tr), WithTracer(count))
	if err != nil {
		t.Fatal(err)
	}
	if !r.Sampled || count[StageCommit] < 4_000 || count[StageFetch] < count[StageCommit] {
		t.Fatalf("sampled=%v, events %v for 4000 measured µ-ops", r.Sampled, count)
	}
}
