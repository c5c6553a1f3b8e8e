package core

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"eole/internal/config"
	"eole/internal/isa"
	"eole/internal/prog"
	"eole/internal/trace"
	"eole/internal/workload"
)

// firstFetches records, through the tracer, the verdict each µ-op of a
// live core carries at its first fetch.
type firstFetches struct {
	c        *Core
	verdicts []verdict // by seq
}

func (f *firstFetches) Window() (uint64, uint64) { return 0, math.MaxUint64 }

func (f *firstFetches) Event(seq, _ uint64, _ isa.Opcode, stage Stage, _ uint64) {
	if stage == StageFetch && seq == uint64(len(f.verdicts)) { // a refetch has a lower seq
		f.verdicts = append(f.verdicts, f.c.at(seq).verdict)
	}
}

func mustReplay(tb testing.TB, cfg config.Config, tr *trace.Trace, w workload.Workload) *Core {
	tb.Helper()
	c, err := NewReplay(cfg, tr, w)
	if err != nil {
		tb.Fatal(err)
	}
	return c
}

// counters renders what a tracked core must share with a live one: the
// whole Stats struct and the branch predictor's statistics.
func counters(c *Core) string {
	u := c.bp
	return fmt.Sprintf("stats=%+v\nbpred %d %d %d %d %d %d %d %d", c.stats, u.CondBranches, u.CondMispredict,
		u.HighConfCond, u.HighConfWrong, u.IndirectSeen, u.IndirectWrong, u.ReturnsSeen, u.ReturnsWrong)
}

// (a) For every named config on every workload, the verdict a live core
// computes at a µ-op's first fetch is the track's byte at its seq.
func TestTrackMatchesLiveVerdicts(t *testing.T) {
	const n = 6_000
	for _, w := range append(workload.All(), mustWorkload(t, "long-dram")) {
		tr := trace.Record(w, n+trace.ReplaySlack)
		for _, name := range config.KnownNames() {
			cfg := mustConfig(t, name)
			t.Run(w.Short+"/"+name, func(t *testing.T) {
				t.Parallel()
				live := New(cfg, prog.MachineSource{M: w.NewMachine()})
				rec := &firstFetches{c: live}
				live.SetTracer(rec)
				live.Run(n)
				track := TrackFor(cfg, tr, w).verdicts
				for seq, v := range rec.verdicts {
					if got := track[seq]; got != v {
						t.Fatalf("seq %d: live verdict %05b, track %05b", seq, v, got)
					}
				}
			})
		}
	}
}

// (b) A trace holds one track per predictor key, and configs that share
// a key build byte-equal tracks whichever of them builds it.
func TestTrackSharedByKey(t *testing.T) {
	w := mustWorkload(t, "gzip")
	const n = 20_000
	built := func(name string) []verdict {
		tr := trace.Record(w, n+trace.ReplaySlack)
		mustReplay(t, mustConfig(t, name), tr, w).Run(n)
		return TrackFor(mustConfig(t, name), tr, w).verdicts
	}
	if a, b := built("Baseline_VP_6_64"), built("EOLE_4_64_4ports_4banks"); string(a) != string(b) {
		t.Fatalf("the tracks differ (%d and %d verdicts)", len(a), len(b))
	}

	tr := trace.Record(w, n)
	tracks := map[*Track]bool{}
	for _, name := range config.KnownNames() {
		tracks[TrackFor(mustConfig(t, name), tr, w)] = true
	}
	if len(tracks) != 2 { // value prediction off, and VTAGE-2DStride
		t.Errorf("the 11 named configs made %d tracks on one trace, want 2", len(tracks))
	}
}

// (d) A trace whose length is no multiple of a chunk, run until the
// source is dry: fetch-ahead reaches the end of the stream, and the
// tracked core still equals one predicting live over the same trace.
func TestTrackReachesTheTraceEnd(t *testing.T) {
	w := mustWorkload(t, "namd")
	tr := trace.Record(w, 3*4096+123)
	for _, name := range []string{"Baseline_6_64", "EOLE_4_64"} {
		cfg := mustConfig(t, name)
		tracked := mustReplay(t, cfg, tr, w)
		src, err := tr.SourceFor(w)
		if err != nil {
			t.Fatal(err)
		}
		live := New(cfg, src)
		tracked.Run(1 << 20)
		live.Run(1 << 20)
		if tracked.stats.Committed != tr.Count {
			t.Fatalf("%s: committed %d of a %d-µ-op trace", name, tracked.stats.Committed, tr.Count)
		}
		if a, b := counters(live), counters(tracked); a != b {
			t.Fatalf("%s: live and tracked differ\n--- live\n%s\n--- tracked\n%s", name, a, b)
		}
	}
}

// (g) The first NewReplay of a (trace, key) builds the track whole, and
// what stays with the trace is the verdicts: nothing a Track holds can
// reach a predictor, a trace cursor, or anything behind an interface.
// Later cores of the key share it.
func TestTrackIsWholeAndHoldsNoPredictor(t *testing.T) {
	w := mustWorkload(t, "gzip")
	tr := trace.Record(w, 3*4096+5)
	cfg := mustConfig(t, "EOLE_4_64")
	c := mustReplay(t, cfg, tr, w)
	tk := TrackFor(cfg, tr, w)
	if uint64(len(tk.verdicts)) != tr.Count || tr.TrackBytes() != tr.Count {
		t.Fatalf("after the first NewReplay the track holds %d verdicts (TrackBytes %d) of a %d-µ-op trace",
			len(tk.verdicts), tr.TrackBytes(), tr.Count)
	}
	trackOf := func(c *Core) *verdict { return &c.src.(*trackSource).verdicts[0] }
	if trackOf(c) != &tk.verdicts[0] || trackOf(mustReplay(t, cfg, tr, w)) != &tk.verdicts[0] {
		t.Fatal("the key's cores do not read the one track")
	}
	seen := map[reflect.Type]bool{}
	var walk func(reflect.Type)
	walk = func(ty reflect.Type) {
		if seen[ty] {
			return
		}
		seen[ty] = true
		switch ty.Kind() {
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(ty.Field(i).Type)
			}
		case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Chan:
			walk(ty.Elem())
		case reflect.Map:
			walk(ty.Key())
			walk(ty.Elem())
		case reflect.Interface, reflect.Func:
			t.Errorf("a Track holds a %s, which may reach anything", ty)
		}
		if p := ty.PkgPath(); strings.HasSuffix(p, "/bpred") || strings.HasSuffix(p, "/vpred") || strings.HasSuffix(p, "/trace") {
			t.Errorf("a Track reaches %s", ty)
		}
	}
	walk(reflect.TypeOf(Track{}))
}

// (e) A tracked core takes the stream as a live one does: warmed µ-ops
// are the ones detailed fetch would take (and a track's verdicts are
// trained in the same order), FlushPipeline drops what is in flight and
// leaves the stream where it is (and Warm or Skip with µ-ops in flight
// drops them as it does), and Skip moves the record cursor — after
// which the next µ-op fetched is the one a live core fetches.
func TestTrackedCoreWarmsLikeLive(t *testing.T) {
	const n, m, n2, m2 = 20_000, 8_000, 15_000, 8_000
	for _, wl := range []string{"gzip", "mcf", "long-dram"} {
		w := mustWorkload(t, wl)
		tr := trace.Record(w, n+m+n2+m2+3*trace.ReplaySlack)
		for _, name := range []string{"Baseline_6_64", "EOLE_4_64"} { // the two predictor keys
			t.Run(wl+"/"+name, func(t *testing.T) {
				t.Parallel()
				cfg := mustConfig(t, name)
				cores := threeCores(t, cfg, tr, w)
				for _, c := range cores {
					c.Warm(n)
					c.Run(m)
					c.FlushPipeline()
					c.Warm(n2)
					c.Run(m2)
				}
				for _, k := range []string{"replay live", "interpreter"} {
					if a, b := counters(cores["tracked"]), counters(cores[k]); a != b {
						t.Fatalf("tracked and %s differ\n--- tracked\n%s\n--- %s\n%s", k, a, k, b)
					}
				}
				// Warm and Skip with µ-ops in flight flush them first, as an
				// explicit FlushPipeline does.
				for _, step := range []struct {
					name string
					f    func(*Core)
				}{{"Warm", func(c *Core) { c.Warm(n2) }}, {"Skip", func(c *Core) { c.Skip(n2) }}} {
					implicit, explicit := threeCores(t, cfg, tr, w), threeCores(t, cfg, tr, w)
					for k := range implicit {
						for _, c := range []*Core{implicit[k], explicit[k]} {
							c.Run(m)
							if c == explicit[k] {
								c.FlushPipeline()
							}
							step.f(c)
							c.Run(m2)
						}
						if a, b := counters(implicit[k]), counters(explicit[k]); a != b {
							t.Fatalf("%s core: Run; %s; Run differs from Run; FlushPipeline; %s; Run\n--- implicit\n%s\n--- explicit\n%s",
								k, step.name, step.name, a, b)
						}
					}
				}
				tracked, live := cores["tracked"], cores["replay live"]
				for _, k := range []uint64{3, 5_000, 1} {
					tracked.FlushPipeline()
					live.FlushPipeline()
					if a, b := tracked.Skip(k), live.Skip(k); a != k || b != k {
						t.Fatalf("Skip(%d) skipped %d µ-ops on the tracked core, %d on the live one", k, a, b)
					}
					if a, b := tracked.nextUop().FetchOp, live.nextUop().FetchOp; a != b {
						t.Fatalf("after Skip(%d) the tracked core fetches\n %+v\nthe live one\n %+v", k, a, b)
					}
				}
				left := tr.Count - tracked.nextUop().Seq - 1
				tracked.FlushPipeline()
				if got := tracked.Skip(left + 10); got != left || tracked.nextUop() != nil {
					t.Fatalf("Skip past the trace's end skipped %d of the %d µ-ops left", got, left)
				}
			})
		}
	}
}

// TestTrackedSkipInsideBatch: a skip that ends inside a tracked core's
// batch moves the batch's address cursor past the loads and stores it
// skips, so every µ-op the core takes after it, across chunk ends,
// carries the address (and the rest of the fetch record) a live core's
// does.
func TestTrackedSkipInsideBatch(t *testing.T) {
	for _, wl := range []string{"mcf", "gzip"} {
		w := mustWorkload(t, wl)
		tr := trace.Record(w, 30_000)
		cores := threeCores(t, mustConfig(t, "EOLE_4_64"), tr, w)
		tracked, live := cores["tracked"], cores["replay live"]
		for _, k := range []uint64{1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377} {
			if a, b := tracked.Skip(k), live.Skip(k); a != k || b != k {
				t.Fatalf("%s: Skip(%d) skipped %d µ-ops on the tracked core, %d on the live one", wl, k, a, b)
			}
			for i := 0; i < 300; i++ {
				if a, b := tracked.nextUop().FetchOp, live.nextUop().FetchOp; a != b {
					t.Fatalf("%s: %d µ-ops after Skip(%d) the tracked core takes\n %+v\nthe live one\n %+v", wl, i, k, a, b)
				}
			}
		}
	}
}

// threeCores returns a core for cfg replaying tr with a track, one
// replaying it and predicting live, and one on w's interpreter.
func threeCores(tb testing.TB, cfg config.Config, tr *trace.Trace, w workload.Workload) map[string]*Core {
	src, err := tr.SourceFor(w)
	if err != nil {
		tb.Fatal(err)
	}
	return map[string]*Core{
		"tracked":     mustReplay(tb, cfg, tr, w),
		"replay live": New(cfg, src),
		"interpreter": New(cfg, prog.MachineSource{M: w.NewMachine()}),
	}
}

// (f) Building a track decodes through its own streaming cursor: the
// trace keeps nothing decoded for it, and what it keeps is a byte per
// µ-op.
func TestTrackBuildLeavesNothingDecoded(t *testing.T) {
	w := mustWorkload(t, "mcf")
	tr := trace.Record(w, 5*4096+7)
	TrackFor(mustConfig(t, "EOLE_4_64"), tr, w)
	if got := tr.DecodedUops(); got != 0 {
		t.Errorf("building the track left %d µ-ops decoded", got)
	}
	if got := tr.TrackBytes(); got != tr.Count {
		t.Errorf("TrackBytes = %d for a %d-µ-op track", got, tr.Count)
	}
}

// FuzzTrackVsLive is replay ≡ execute-driven for machines nobody named,
// with the verdicts read from a track: a configuration bent as
// FuzzStepVsRun bends it, a workload and a (warmup, measure) run. A core
// replaying with a track, one replaying and predicting live, and one on
// the interpreter must end with equal counters, or wedge alike.
func FuzzTrackVsLive(f *testing.F) {
	f.Add(uint8(0), []byte{}, uint8(0), uint8(40), uint8(90))                 // Baseline_6_64, gzip
	f.Add(uint8(6), []byte{5, 0, 6, 0}, uint8(11), uint8(30), uint8(200))     // EOLE_4_64 with the PRF at its floor, mcf
	f.Add(uint8(10), []byte{8, 1, 7, 2}, uint8(4), uint8(0), uint8(120))      // 1 LE/VT port on each of 4 banks, art
	f.Add(uint8(5), []byte{9, 1, 10, 1, 0, 0}, uint8(9), uint8(77), uint8(5)) // LE width 1, LE returns, 1-issue, gcc
	f.Add(uint8(6), []byte{1, 7, 2, 24}, uint8(21), uint8(10), uint8(60))     // IQ 8, ROB 32, long-dram
	names := config.KnownNames()
	wls := append(workload.All(), workload.LongAll()...)
	f.Fuzz(func(t *testing.T, base uint8, knobs []byte, wl uint8, warmup, measure uint8) {
		cfg := mustConfig(t, names[int(base)%len(names)])
		for i := 0; i+1 < len(knobs) && i < 16; i += 2 {
			bend(&cfg, knobs[i], int(knobs[i+1]))
		}
		cfg.Name = ""
		if cfg.Validate() != nil {
			t.Skip()
		}
		w := wls[int(wl)%len(wls)]
		n1, n2 := 37*uint64(warmup), 1+61*uint64(measure)
		tr := trace.Record(w, n1+n2+trace.SlackFor(cfg.ROBSize, cfg.FetchQueueSize))
		src, err := tr.SourceFor(w)
		if err != nil {
			t.Fatal(err)
		}
		cores := map[string]*Core{
			"tracked":     mustReplay(t, cfg, tr, w),
			"replay live": New(cfg, src),
			"interpreter": New(cfg, prog.MachineSource{M: w.NewMachine()}),
		}
		got := map[string]string{}
		for name, c := range cores {
			wedge := jumpRun(c, n1)
			if wedge == "" {
				c.ResetStats()
				wedge = jumpRun(c, n2)
			}
			got[name] = wedge + "\n" + counters(c)
		}
		for _, name := range []string{"replay live", "interpreter"} {
			if got[name] != got["tracked"] {
				t.Fatalf("tracked and %s differ\n--- tracked\n%s\n--- %s\n%s", name, got["tracked"], name, got[name])
			}
		}
	})
}

// FuzzWarmTrackVsLive is FuzzTrackVsLive through a sampler's phases: a
// configuration bent as FuzzStepVsRun bends it, a workload, and a
// schedule of up to six phases — Run, FlushPipeline then Warm, or
// FlushPipeline alone, each byte one phase and its length. A core
// replaying with a track, one replaying and predicting live, and one on
// the interpreter must end with equal counters, or wedge alike.
func FuzzWarmTrackVsLive(f *testing.F) {
	f.Add(uint8(6), []byte{}, uint8(0), []byte{1, 60, 2, 31, 90})                 // EOLE_4_64, gzip
	f.Add(uint8(0), []byte{}, uint8(11), []byte{4, 30, 5, 3, 61})                 // Baseline_6_64, mcf
	f.Add(uint8(6), []byte{1, 7, 2, 24}, uint8(21), []byte{121, 45, 0, 7, 3, 36}) // IQ 8, ROB 32, long-dram
	f.Add(uint8(10), []byte{8, 1, 7, 2}, uint8(4), []byte{0, 1, 2, 240, 100})     // 1 LE/VT port on each of 4 banks, art
	names := config.KnownNames()
	wls := append(workload.All(), workload.LongAll()...)
	f.Fuzz(func(t *testing.T, base uint8, knobs []byte, wl uint8, phases []byte) {
		cfg := mustConfig(t, names[int(base)%len(names)])
		for i := 0; i+1 < len(knobs) && i < 16; i += 2 {
			bend(&cfg, knobs[i], int(knobs[i+1]))
		}
		cfg.Name = ""
		if cfg.Validate() != nil {
			t.Skip()
		}
		if len(phases) > 6 {
			phases = phases[:6]
		}
		// Each phase may leave a window's worth of fetched µ-ops behind.
		slack := trace.SlackFor(cfg.ROBSize, cfg.FetchQueueSize)
		need := slack
		for _, p := range phases {
			need += 1 + 61*uint64(p/3) + slack
		}
		w := wls[int(wl)%len(wls)]
		tr := trace.Record(w, need)
		got := map[string]string{}
		for name, c := range threeCores(t, cfg, tr, w) {
			wedge := ""
			for _, p := range phases {
				n := 1 + 61*uint64(p/3)
				if p%3 != 0 {
					c.FlushPipeline()
				}
				if p%3 == 1 {
					c.Warm(n)
				} else if p%3 == 0 {
					if wedge = jumpRun(c, n); wedge != "" {
						break
					}
				}
			}
			got[name] = wedge + "\n" + counters(c)
		}
		for _, name := range []string{"replay live", "interpreter"} {
			if got[name] != got["tracked"] {
				t.Fatalf("tracked and %s differ\n--- tracked\n%s\n--- %s\n%s", name, got["tracked"], name, got[name])
			}
		}
	})
}
