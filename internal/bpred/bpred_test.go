package bpred

import (
	"testing"
	"testing/quick"

	"eole/internal/isa"
	"eole/internal/prog"
	"eole/internal/workload"
)

func TestGeometricLengths(t *testing.T) {
	l := GeometricLengths(4, 640, 12)
	if len(l) != 12 {
		t.Fatalf("got %d lengths", len(l))
	}
	if l[0] != 4 {
		t.Errorf("first length = %d, want 4", l[0])
	}
	if l[11] != 640 {
		t.Errorf("last length = %d, want 640", l[11])
	}
	for i := 1; i < len(l); i++ {
		if l[i] <= l[i-1] {
			t.Errorf("lengths not strictly increasing: %v", l)
		}
	}
}

func TestGlobalHistoryPushAndBit(t *testing.T) {
	h := NewHistory()
	seq := []bool{true, false, true, true, false}
	for _, b := range seq {
		h.Push(b)
	}
	// bit(0) is the newest.
	for i := 0; i < len(seq); i++ {
		want := uint8(0)
		if seq[len(seq)-1-i] {
			want = 1
		}
		if got := h.bit(i); got != want {
			t.Errorf("bit(%d) = %d, want %d", i, got, want)
		}
	}
}

// directFold folds the newest n bits of h into width bits from scratch:
// the XOR over i < n of h[i] << (i % width).
func directFold(h *History, n, width int) uint32 {
	var v uint32
	for i := 0; i < n; i++ {
		v ^= uint32(h.bit(i)) << (i % width)
	}
	return v
}

// checkFolds registers every window of lens with one history, pushes
// the bits of pushes, and fails unless every window's three folds equal
// their direct folds after every push. A length given twice must share
// one fold word.
func checkFolds(t *testing.T, lens []int, pushes []bool) {
	t.Helper()
	h := NewHistory()
	win := make([]int, len(lens))
	distinct := map[int]int{}
	for i, n := range lens {
		win[i] = h.Window(n)
		if j, seen := distinct[n]; seen && j != win[i] {
			t.Fatalf("window %d registered twice as %d and %d", n, j, win[i])
		}
		distinct[n] = win[i]
	}
	if len(h.folds) != len(distinct) {
		t.Fatalf("windows %v keep %d folds, want %d", lens, len(h.folds), len(distinct))
	}
	for step, taken := range pushes {
		h.Push(taken)
		for i, n := range lens {
			idx, tag, tag2 := h.Folds(win[i])
			if idx != directFold(h, n, IndexBits) || tag != directFold(h, n, TagBits) || tag2 != directFold(h, n, TagBits-1) {
				t.Fatalf("windows %v, step %d: window %d folds %#x %#x %#x differ from the direct folds", lens, step, n, idx, tag, tag2)
			}
		}
	}
}

func lcgBits(seed uint64, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		seed = seed*6364136223846793005 + 1442695040888963407
		out[i] = seed&0x100 != 0
	}
	return out
}

// TestFoldsMatchDirectFold: the incremental lanes equal a from-scratch
// fold of the window at every step, for windows shorter than, equal to
// and far longer than the lanes, alone and sharing one history.
func TestFoldsMatchDirectFold(t *testing.T) {
	lens := []int{0, 1, 4, 10, 11, 12, 13, 20, 64, 640, maxWindow}
	for _, n := range lens {
		checkFolds(t, []int{n}, lcgBits(uint64(n), 2500))
	}
	checkFolds(t, append(lens, 13, 4, 640), lcgBits(7, 2500))
}

// TestTaggedHistoryFolds: every TAGE component's folds, advanced by
// Push, equal the direct folds of that component's window.
func TestTaggedHistoryFolds(t *testing.T) {
	cfg := DefaultTageConfig()
	h := NewHistory()
	tg := NewTAGE(cfg, h)
	lens := GeometricLengths(cfg.MinHist, cfg.MaxHist, cfg.NumTagged)
	for step, taken := range lcgBits(12345, 3000) {
		h.Push(taken)
		for i, n := range lens {
			idx, tag, tag2 := h.Folds(tg.win[i])
			if idx != directFold(h, n, IndexBits) || tag != directFold(h, n, TagBits) || tag2 != directFold(h, n, TagBits-1) {
				t.Fatalf("step %d, component %d (window %d): folds %#x %#x %#x differ from the direct folds", step, i, n, idx, tag, tag2)
			}
		}
	}
}

func TestFoldsZeroWindowIsZero(t *testing.T) {
	h := NewHistory()
	w := h.Window(20)
	for i := 0; i < 500; i++ {
		h.Push(i%3 == 0)
	}
	// Now push 20+ zeros: every lane must return to 0.
	for i := 0; i < 40; i++ {
		h.Push(false)
	}
	if f := h.folds[w].word; f != 0 {
		t.Fatalf("folds of an all-zero window = %#x, want 0", f)
	}
}

// A window registered after a push would fold bits it never saw, and a
// predictor's tables built then would not match the history: Window
// refuses, even for a length already registered.
func TestWindowAfterPushPanics(t *testing.T) {
	for _, n := range []int{16, 17} {
		h := NewHistory()
		h.Window(16)
		h.Push(true)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Window(%d) after Push did not panic", n)
				}
			}()
			h.Window(n)
		}()
	}
}

// FuzzFolds: any three windows up to maxWindow bits, equal ones
// included, sharing one history, and any pushes keep every lane of
// every window equal to its direct fold.
func FuzzFolds(f *testing.F) {
	for _, c := range [][3]uint16{{13, 5, 13}, {4, 10, 640}, {640, 12, 64}, {64, 11, 1023}, {20, 7, 20}} {
		f.Add(c[0], c[1], c[2], []byte("\x5a\xc3\x0f\xff\x00\x81"))
	}
	f.Fuzz(func(t *testing.T, w0, w1, w2 uint16, pushes []byte) {
		lens := []int{1 + int(w0)%maxWindow, 1 + int(w1)%maxWindow, 1 + int(w2)%maxWindow}
		if len(pushes) > 256 {
			pushes = pushes[:256]
		}
		bits := make([]bool, 0, 8*len(pushes))
		for _, b := range pushes {
			for i := 0; i < 8; i++ {
				bits = append(bits, b>>i&1 != 0)
			}
		}
		checkFolds(t, lens, bits)
	})
}

func TestTageLearnsAlternation(t *testing.T) {
	h := NewHistory()
	tg := NewTAGE(DefaultTageConfig(), h)
	pc := uint64(0x400100)
	wrong := 0
	for i := 0; i < 4000; i++ {
		taken := i%2 == 0
		p := tg.Predict(pc)
		if i > 500 && p.Taken != taken {
			wrong++
		}
		tg.Update(taken, &p)
		h.Push(taken)
	}
	if wrong > 35 {
		t.Fatalf("TAGE mispredicted alternating pattern %d times after warmup", wrong)
	}
}

func TestTageLearnsHistoryPattern(t *testing.T) {
	// Period-5 pattern needs history, not bias: bimodal alone fails.
	pattern := []bool{true, true, false, true, false}
	h := NewHistory()
	tg := NewTAGE(DefaultTageConfig(), h)
	pc := uint64(0x400200)
	wrong := 0
	for i := 0; i < 10000; i++ {
		taken := pattern[i%len(pattern)]
		p := tg.Predict(pc)
		if i > 2000 && p.Taken != taken {
			wrong++
		}
		tg.Update(taken, &p)
		h.Push(taken)
	}
	if rate := float64(wrong) / 8000; rate > 0.02 {
		t.Fatalf("TAGE misprediction rate on period-5 pattern = %.3f, want < 0.02", rate)
	}
}

func TestTageAlwaysTakenIsHighConfidence(t *testing.T) {
	h := NewHistory()
	tg := NewTAGE(DefaultTageConfig(), h)
	pc := uint64(0x400300)
	var highConf int
	for i := 0; i < 3000; i++ {
		p := tg.Predict(pc)
		if i > 1000 && p.Conf == ConfHigh && p.Taken {
			highConf++
		}
		tg.Update(true, &p)
		h.Push(true)
	}
	if highConf < 1500 {
		t.Fatalf("always-taken branch reached high confidence only %d/2000 times", highConf)
	}
}

func TestTageStorageBits(t *testing.T) {
	h := NewHistory()
	tg := NewTAGE(DefaultTageConfig(), h)
	bits := tg.StorageBits()
	// 4K*2 + 12*1K*(3+12+2) = 8K + 204K bits ≈ 26KB: same order as the
	// paper's 15K-entry predictor.
	if bits < 100_000 || bits > 400_000 {
		t.Fatalf("storage = %d bits, outside plausible range", bits)
	}
}

func TestBTBInsertLookup(t *testing.T) {
	b := NewBTB(64, 2)
	if _, hit := b.Lookup(0x400000); hit {
		t.Fatal("empty BTB must miss")
	}
	b.Insert(0x400000, 0x400800)
	if tgt, hit := b.Lookup(0x400000); !hit || tgt != 0x400800 {
		t.Fatalf("lookup = %#x,%v want 0x400800,true", tgt, hit)
	}
	// Update in place.
	b.Insert(0x400000, 0x400900)
	if tgt, _ := b.Lookup(0x400000); tgt != 0x400900 {
		t.Fatalf("updated target = %#x, want 0x400900", tgt)
	}
}

func TestBTBConflictEviction(t *testing.T) {
	b := NewBTB(8, 2) // 4 sets of 2 ways
	// Three PCs mapping to the same set (stride = 4*numSets).
	pcs := []uint64{0x1000, 0x1000 + 4*4, 0x1000 + 8*4}
	setStride := uint64(4 * 4)
	pcs = []uint64{0x1000, 0x1000 + setStride*4, 0x1000 + setStride*8}
	for _, pc := range pcs {
		b.Insert(pc, pc+100)
	}
	hits := 0
	for _, pc := range pcs {
		if _, hit := b.Lookup(pc); hit {
			hits++
		}
	}
	if hits != 2 {
		t.Fatalf("2-way set kept %d of 3 conflicting entries, want 2", hits)
	}
}

func TestRASPushPop(t *testing.T) {
	r := NewRAS(4)
	if _, ok := r.Pop(); ok {
		t.Fatal("empty RAS must underflow")
	}
	r.Push(1)
	r.Push(2)
	r.Push(3)
	for want := uint64(3); want >= 1; want-- {
		got, ok := r.Pop()
		if !ok || got != want {
			t.Fatalf("Pop = %d,%v want %d,true", got, ok, want)
		}
	}
}

func TestRASWrapsOnOverflow(t *testing.T) {
	r := NewRAS(2)
	r.Push(1)
	r.Push(2)
	r.Push(3) // overwrites 1
	if v, _ := r.Pop(); v != 3 {
		t.Fatalf("top = %d, want 3", v)
	}
	if v, _ := r.Pop(); v != 2 {
		t.Fatalf("next = %d, want 2", v)
	}
	if _, ok := r.Pop(); ok {
		t.Fatal("RAS must be empty after wrap (entry 1 lost)")
	}
}

func TestRASProperty(t *testing.T) {
	// Pushes never exceed depth capacity; pops mirror pushes while
	// within capacity.
	f := func(addrs []uint64) bool {
		if len(addrs) > 32 {
			addrs = addrs[:32]
		}
		r := NewRAS(32)
		for _, a := range addrs {
			r.Push(a)
		}
		if r.Depth() != len(addrs) {
			return false
		}
		for i := len(addrs) - 1; i >= 0; i-- {
			v, ok := r.Pop()
			if !ok || v != addrs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// runUnit drives the predictor stack with a workload's branch stream
// and returns the counts of what it predicted.
func runUnit(t *testing.T, name string, n uint64) *Counts {
	t.Helper()
	w, err := workload.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	u := NewUnit()
	var c Counts
	m := w.NewMachine()
	m.Run(n, func(op *prog.MicroOp) bool {
		if op.IsBranch() {
			r := u.OnBranch(op.Class(), op.PC, op.NextPC, op.PC+4, op.Taken)
			c.Account(op.Class(), r.Mispredicted, r.PredTaken != op.Taken, r.VeryHighConf)
		}
		return true
	})
	return &c
}

func TestUnitOnLoopyWorkload(t *testing.T) {
	// h264ref is counted loops: TAGE should be nearly perfect and most
	// branches should reach very high confidence.
	u := runUnit(t, "h264ref", 200_000)
	if r := u.CondMispredictRate(); r > 0.02 {
		t.Errorf("h264ref cond mispredict rate = %.4f, want <= 0.02", r)
	}
	if f := u.HighConfFraction(); f < 0.5 {
		t.Errorf("h264ref high-conf fraction = %.2f, want >= 0.5", f)
	}
}

func TestUnitOnHardWorkload(t *testing.T) {
	// vpr's accept branch is a coin flip: overall mispredict rate must
	// be clearly nonzero, and the high-confidence class must stay
	// accurate (that is the paper's safety requirement for LE).
	u := runUnit(t, "vpr", 200_000)
	if r := u.CondMispredictRate(); r < 0.05 {
		t.Errorf("vpr cond mispredict rate = %.4f, suspiciously low", r)
	}
	if hr := u.HighConfMispredictRate(); hr > 0.02 {
		t.Errorf("high-conf mispredict rate = %.4f, want <= 0.02", hr)
	}
}

func TestHighConfidenceSafety(t *testing.T) {
	// Across several mixed workloads the very-high-confidence class
	// must mispredict well under 1% (paper: "generally lower than
	// 0.5%"); allow 1% slack for our synthetic kernels.
	for _, name := range []string{"gzip", "crafty", "gcc", "sjeng"} {
		u := runUnit(t, name, 150_000)
		if hr := u.HighConfMispredictRate(); hr > 0.01 {
			t.Errorf("%s: high-conf mispredict rate = %.4f, want <= 0.01", name, hr)
		}
	}
}

func TestReturnsPredictedByRAS(t *testing.T) {
	// vortex is call/return heavy; after warmup returns must be nearly
	// always correct.
	u := runUnit(t, "vortex", 100_000)
	if u.ReturnsSeen == 0 {
		t.Fatal("vortex produced no returns")
	}
	if rate := float64(u.ReturnsWrong) / float64(u.ReturnsSeen); rate > 0.01 {
		t.Errorf("return mispredict rate = %.4f, want <= 0.01", rate)
	}
}

func TestIndirectJumpsTracked(t *testing.T) {
	u := runUnit(t, "gcc", 100_000)
	if u.IndirectSeen == 0 {
		t.Fatal("gcc produced no indirect jumps")
	}
	// Random 3-way dispatch: last-target prediction must miss a lot.
	rate := float64(u.IndirectWrong) / float64(u.IndirectSeen)
	if rate < 0.2 {
		t.Errorf("indirect mispredict rate = %.3f; dispatch should be hard", rate)
	}
}

func TestUnitDirectJumpAfterWarmup(t *testing.T) {
	u := NewUnit()
	// First encounter misses BTB; later ones hit.
	r := u.OnBranch(isa.ClassJump, 0x400000, 0x400100, 0x400004, true)
	if !r.Mispredicted {
		t.Fatal("first direct jump must miss the BTB")
	}
	r = u.OnBranch(isa.ClassJump, 0x400000, 0x400100, 0x400004, true)
	if r.Mispredicted {
		t.Fatal("second direct jump must hit the BTB")
	}
}
