package cache

import (
	"testing"
	"unsafe"

	"eole/internal/dram"
)

// flat is a constant-latency backing level for unit tests.
type flat struct {
	lat      uint64
	accesses int
}

func (f *flat) Access(addr uint64, write bool, pc uint64, now uint64) uint64 {
	f.accesses++
	return now + f.lat
}

func smallCache(mshrs int, next Level) *Cache {
	return New(Config{
		Name: "T", SizeBytes: 1 << 12, Ways: 2, LineBytes: 64,
		Latency: 2, MSHRs: mshrs, WriteBack: true,
	}, next)
}

func TestMissThenHit(t *testing.T) {
	back := &flat{lat: 100}
	c := smallCache(8, back)
	if done := c.Access(0x1000, false, 0, 0); done != 102 {
		t.Fatalf("miss latency = %d, want 2+100", done)
	}
	// Same line now hits (after fill time has passed).
	if done := c.Access(0x1008, false, 0, 200); done != 202 {
		t.Fatalf("hit latency = %d, want 202", done)
	}
	if c.Misses != 1 || c.Accesses != 2 {
		t.Fatalf("stats = %d misses / %d accesses, want 1/2", c.Misses, c.Accesses)
	}
}

func TestMSHRMergesSameLine(t *testing.T) {
	back := &flat{lat: 100}
	c := smallCache(8, back)
	first := c.Access(0x2000, false, 0, 0)
	second := c.Access(0x2010, false, 0, 1) // same line, still in flight
	if back.accesses != 1 {
		t.Fatalf("backing accessed %d times, want 1 (merge)", back.accesses)
	}
	if second > first {
		t.Fatalf("merged request completes at %d, after primary %d", second, first)
	}
	if c.MSHRMerges != 1 {
		t.Fatalf("MSHRMerges = %d, want 1", c.MSHRMerges)
	}
}

func TestMSHRLimitDelaysMisses(t *testing.T) {
	back := &flat{lat: 1000}
	c := smallCache(2, back)
	c.Access(0x10000, false, 0, 0)
	c.Access(0x20000, false, 0, 0)
	// Third concurrent miss must wait for an MSHR.
	done := c.Access(0x30000, false, 0, 0)
	if done <= 1002 {
		t.Fatalf("third miss done at %d; must wait for an MSHR (> 1002)", done)
	}
	if c.MSHRStalls != 1 {
		t.Fatalf("MSHRStalls = %d, want 1", c.MSHRStalls)
	}
}

func TestLRUEviction(t *testing.T) {
	back := &flat{lat: 10}
	// 4KB, 2-way, 64B lines -> 32 sets; three lines in one set.
	c := smallCache(8, back)
	setStride := uint64(32 * 64)
	a, b, d := uint64(0x0), setStride, 2*setStride
	c.Access(a, false, 0, 0)
	c.Access(b, false, 0, 100)
	c.Access(a, false, 0, 200) // touch a: b becomes LRU
	c.Access(d, false, 0, 300) // evicts b
	misses := c.Misses
	c.Access(a, false, 0, 400)
	if c.Misses != misses {
		t.Fatal("a must still hit")
	}
	c.Access(b, false, 0, 500)
	if c.Misses != misses+1 {
		t.Fatal("b must have been evicted")
	}
}

// A line is one word (the L2's line array is most of what a full run's
// core allocates), and the word keeps the dirty bit through restamps: a
// write hit dirties a clean line, a later read hit leaves it dirty, and
// when the set turns over only the dirty line is written back.
func TestLineKeepsDirtyAcrossHits(t *testing.T) {
	if sz := unsafe.Sizeof(line(0)); sz > 8 {
		t.Errorf("a cache line is %d bytes, want <= 8", sz)
	}
	c := smallCache(8, &flat{lat: 10})
	setStride := uint64(32 * 64)
	a, b := uint64(0), setStride
	c.Access(a, false, 0, 0)
	c.Access(b, false, 0, 10)
	c.Access(a, true, 0, 20)            // write hit: a is dirty
	c.Access(a, false, 0, 30)           // read hit: a stays dirty, b is LRU
	c.Access(2*setStride, false, 0, 40) // evicts clean b
	if c.Writebacks != 0 {
		t.Fatalf("evicting a clean line wrote back %d lines", c.Writebacks)
	}
	c.Access(3*setStride, false, 0, 50) // evicts a
	if c.Writebacks != 1 {
		t.Fatalf("evicting the dirty line: %d writebacks, want 1", c.Writebacks)
	}
}

// Per-set stamps in a packed word decide what one cache-wide counter
// over whole lines decides: over a random stream of reads and writes
// concentrated on a few sets of a 4-way cache, long enough that every
// set renumbers its stamps hundreds of times, each access hits or
// misses, and each miss writes back or not, exactly as in a reference
// LRU written the plain way, and so does every writeback's address.
func TestPackedLRUMatchesReference(t *testing.T) {
	type refLine struct {
		valid, dirty bool
		la, stamp    uint64
	}
	const ways, sets, lineBytes = 4, 8, 64
	back := &recorder{}
	c := New(Config{Name: "T", SizeBytes: ways * sets * lineBytes, Ways: ways, LineBytes: lineBytes, MSHRs: 8, WriteBack: true}, back)
	if c.stampMax >= 1<<12 {
		t.Fatalf("stamps of %d values would renumber too rarely to test", c.stampMax)
	}
	ref := make([][]refLine, sets)
	for i := range ref {
		ref[i] = make([]refLine, ways)
	}
	var clock uint64
	x := uint64(88172645463325252)
	for n := 0; n < 200_000; n++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		// Lines 0..6 of sets 0..2 (addresses far apart, so tags differ
		// in high bits too): more lines than ways, so sets turn over.
		la := (x>>8)%7*sets<<20 | x>>4%3
		write := x&1 == 1
		s := ref[la%sets]
		want, wantWB, wbAddr := true, false, uint64(0)
		victim := -1
		for i := range s {
			if s[i].valid && s[i].la == la {
				victim, want = i, false
				clock++
				s[i].stamp, s[i].dirty = clock, s[i].dirty || write
			}
		}
		if want {
			victim = 0
			for i := range s {
				if !s[i].valid {
					victim = i
					break
				}
				if s[i].stamp < s[victim].stamp {
					victim = i
				}
			}
			wantWB, wbAddr = s[victim].valid && s[victim].dirty, s[victim].la*lineBytes
			clock++
			s[victim] = refLine{valid: true, dirty: write, la: la, stamp: clock}
		}
		misses, wbs := c.Misses, c.Writebacks
		back.addr = ^uint64(0)
		c.Access(la*lineBytes, write, 0, uint64(n)*1000)
		if got := c.Misses != misses; got != want {
			t.Fatalf("access %d to line %#x: miss %v, the reference says %v", n, la, got, want)
		}
		if got := c.Writebacks != wbs; got != wantWB || (wantWB && back.addr != wbAddr) {
			t.Fatalf("access %d to line %#x: writeback %v of %#x, the reference says %v of %#x", n, la, got, back.addr, wantWB, wbAddr)
		}
	}
}

// recorder is a backing level that notes the last write it was sent.
type recorder struct{ addr uint64 }

func (r *recorder) Access(addr uint64, write bool, pc uint64, now uint64) uint64 {
	if write {
		r.addr = addr
	}
	return now + 10
}

func TestDirtyWritebackReachesNextLevel(t *testing.T) {
	back := &flat{lat: 10}
	c := smallCache(8, back)
	setStride := uint64(32 * 64)
	c.Access(0x0, true, 0, 0) // write-allocate, dirty
	back.accesses = 0
	c.Access(setStride, false, 0, 100)   // fills same set
	c.Access(2*setStride, false, 0, 200) // evicts dirty line 0
	if c.Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", c.Writebacks)
	}
	// 2 demand fills + 1 writeback.
	if back.accesses != 3 {
		t.Fatalf("backing accesses = %d, want 3", back.accesses)
	}
}

func TestStridePrefetcherLocksOn(t *testing.T) {
	p := newStridePrefetcher(PrefetcherConfig{TableEntries: 16, Degree: 4, Distance: 1})
	pc := uint64(0x400100)
	var got []uint64
	for i := 0; i < 6; i++ {
		got = p.observe(pc, uint64(i*64))
	}
	if len(got) != 4 {
		t.Fatalf("prefetch degree = %d, want 4", len(got))
	}
	// Last access at 5*64: prefetches at +64, +128, ...
	for i, a := range got {
		want := uint64(5*64 + (i+1)*64)
		if a != want {
			t.Fatalf("prefetch[%d] = %#x, want %#x", i, a, want)
		}
	}
}

func TestStridePrefetcherIgnoresRandom(t *testing.T) {
	p := newStridePrefetcher(DefaultPrefetcherConfig())
	pc := uint64(0x400100)
	s := uint64(12345)
	issued := 0
	for i := 0; i < 200; i++ {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		issued += len(p.observe(pc, s&0xFFFFF8))
	}
	if issued > 50 {
		t.Fatalf("prefetcher issued %d addresses on a random stream", issued)
	}
}

func TestPrefetchHidesLatencyInL2(t *testing.T) {
	h := NewTable1Hierarchy()
	// Stream through 4MB (beyond L2) twice: with the prefetcher the
	// second half of the stream should mostly hit L2 or be in flight.
	var now uint64
	var totalLat uint64
	const n = 4096
	for i := 0; i < n; i++ {
		addr := uint64(0x1000_0000 + i*64)
		done := h.Load(0x400500, addr, now)
		totalLat += done - now
		now += 50
	}
	avg := float64(totalLat) / n
	// Without prefetching every access would pay >= 75-cycle DRAM
	// latency (plus L1/L2); with degree-8 prefetch the average must
	// drop well below that.
	if avg > 60 {
		t.Fatalf("streaming average latency = %.1f cycles; prefetcher ineffective", avg)
	}
	if h.L2.Prefetches == 0 {
		t.Fatal("no prefetches issued")
	}
}

func TestHierarchyLatencies(t *testing.T) {
	h := NewTable1Hierarchy()
	// Cold load: L1 miss + L2 miss + DRAM.
	done := h.Load(0x400000, 0x5000_0000, 1000)
	lat := done - 1000
	if lat < 75 || lat > 250 {
		t.Fatalf("cold load latency = %d, want within [75,250]", lat)
	}
	// Hot load: L1 hit = 2 cycles.
	done = h.Load(0x400000, 0x5000_0000, 10_000)
	if done-10_000 != 2 {
		t.Fatalf("L1 hit latency = %d, want 2", done-10_000)
	}
	// Fetch path works.
	if done := h.Fetch(0x400000, 0); done == 0 {
		t.Fatal("fetch returned zero cycle")
	}
}

// findAddr scans for an address whose (bank,row) relation to base
// satisfies pred.
func findAddr(t *testing.T, d *dram.DDR3, base uint64, pred func(sameBank, sameRow bool) bool) uint64 {
	t.Helper()
	b0, r0 := d.Decode(base)
	cfg := dram.DefaultConfig()
	for i := 1; i < 1<<16; i++ {
		addr := base + uint64(i*cfg.RowBytes)
		b, r := d.Decode(addr)
		if pred(b == b0, r == r0) {
			return addr
		}
	}
	t.Fatal("no address found")
	return 0
}

func TestDramRowBufferBehaviour(t *testing.T) {
	d := dram.New(dram.DefaultConfig())
	base := uint64(0x1000_0000)
	// First access to a closed bank.
	first := d.Access(base, false, 0, 0)
	if first < 75 || first > 185 {
		t.Fatalf("closed-bank latency = %d, want within [75,185]", first)
	}
	// Row hit: same row, after bank is free.
	now := first + 100
	done := d.Access(base+0x40, false, 0, now)
	hitLat := done - now
	// Row conflict: different row, same bank.
	confl := findAddr(t, d, base, func(sameBank, sameRow bool) bool { return sameBank && !sameRow })
	now = done + 100
	done = d.Access(confl, false, 0, now)
	conflLat := done - now
	if hitLat >= conflLat {
		t.Fatalf("row hit (%d) must be faster than row conflict (%d)", hitLat, conflLat)
	}
	if conflLat > 185+20 {
		t.Fatalf("row conflict latency = %d, exceeds Table 1 max", conflLat)
	}
	if d.RowHitRate() <= 0 {
		t.Fatal("row hit not recorded")
	}
}

func TestDramBankParallelism(t *testing.T) {
	d := dram.New(dram.DefaultConfig())
	base := uint64(0x2000_0000)
	other := findAddr(t, d, base, func(sameBank, sameRow bool) bool { return !sameBank })
	// Two accesses to different banks at the same cycle proceed in
	// parallel; two to the same bank serialize.
	a1 := d.Access(base, false, 0, 0)
	a2 := d.Access(other, false, 0, 0)
	if a2 > a1+10 {
		t.Fatalf("different banks serialized: %d vs %d", a1, a2)
	}
	d2 := dram.New(dram.DefaultConfig())
	sameBank := findAddr(t, d2, base, func(sb, sr bool) bool { return sb && !sr })
	b1 := d2.Access(base, false, 0, 0)
	b2 := d2.Access(sameBank, false, 0, 0)
	if b2 <= b1 {
		t.Fatalf("same-bank accesses must serialize: %d vs %d", b1, b2)
	}
}

func TestDramBankHashingSpreadsStreams(t *testing.T) {
	// Two power-of-two-spaced streams (the h264ref pattern) must not
	// land on a single bank.
	d := dram.New(dram.DefaultConfig())
	banks := map[int]bool{}
	for i := 0; i < 32; i++ {
		b1, _ := d.Decode(0x1000_0000 + uint64(i*8192))
		b2, _ := d.Decode(0x2000_0000 + uint64(i*8192))
		banks[b1] = true
		banks[b2] = true
	}
	if len(banks) < 4 {
		t.Fatalf("streams cover only %d banks; hashing ineffective", len(banks))
	}
}

func TestWritesArePosted(t *testing.T) {
	d := dram.New(dram.DefaultConfig())
	ack := d.Access(0x100, true, 0, 0)
	if ack > 50 {
		t.Fatalf("posted write ack = %d, want small", ack)
	}
}
