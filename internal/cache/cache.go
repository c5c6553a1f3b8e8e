// Package cache implements the cache hierarchy of Table 1: split
// 32KB 4-way L1 caches (2-cycle L1D), a unified 2MB 16-way 12-cycle
// L2 with a degree-8 stride prefetcher, 64B lines, LRU replacement,
// and MSHR-limited outstanding misses. Backed by the DDR3 model of
// internal/dram.
package cache

import "fmt"

// Level is anything that can serve a memory access: a cache or the
// DRAM controller. Access returns the CPU cycle at which the request
// completes.
type Level interface {
	Access(addr uint64, write bool, pc uint64, now uint64) uint64
}

// Config sizes one cache.
type Config struct {
	Name       string
	SizeBytes  int
	Ways       int
	LineBytes  int
	Latency    uint64 // access latency in cycles (hit time)
	MSHRs      int    // max outstanding misses (0 = unlimited)
	WriteBack  bool
	Prefetcher *PrefetcherConfig // optional, trained on this level's accesses
}

// line is one cache line's state in one word: its tag (the line address
// above the set index) over its LRU stamp over the dirty bit. A set's
// stamps count its fills and hits from 1 (Cache.clock), so within a set
// they order lines by recency, as one cache-wide counter would, and a
// zero word is a line never filled (lines are never invalidated). A set
// whose count outgrows the stamp field has its stamps renumbered in the
// same order (renumber). The word is this small because every new core
// allocates an L2 of 32 768 lines, most of what a full run allocates.
type line uint64

func (l line) dirty() uint64 { return uint64(l) & 1 }

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

type mshrEntry struct {
	addr  uint64 // line address
	ready uint64
}

// Cache is one set-associative, write-allocate cache level.
type Cache struct {
	cfg      Config
	lines    []line   // set i is lines[i*Ways : (i+1)*Ways]
	clock    []uint32 // per set: the last stamp given
	setMask  uint64
	setBits  uint
	lineBits uint
	tagShift uint   // a line's tag starts here; its stamp is below
	stampMax uint64 // the largest stamp the field holds
	next     Level
	mshrs    []mshrEntry
	pf       *stridePrefetcher

	// Stats.
	Accesses   uint64
	Misses     uint64
	Writebacks uint64
	MSHRMerges uint64
	MSHRStalls uint64
	Prefetches uint64
}

// New builds a cache in front of next.
func New(cfg Config, next Level) *Cache {
	numSets := cfg.SizeBytes / cfg.LineBytes / cfg.Ways
	n := 1
	for n*2 <= numSets {
		n *= 2
	}
	c := &Cache{cfg: cfg, next: next, setMask: uint64(n - 1), lines: make([]line, n*cfg.Ways), clock: make([]uint32, n)}
	for 1<<c.lineBits < cfg.LineBytes {
		c.lineBits++
	}
	for 1<<c.setBits < n {
		c.setBits++
	}
	// The tag takes the 64-lineBits-setBits bits a line address has
	// above its set index; the stamp gets what is left below it, past
	// the dirty bit, up to the clock's 32 bits.
	stampBits := min(max(int(c.lineBits+c.setBits)-1, 0), 32)
	c.tagShift, c.stampMax = uint(stampBits)+1, 1<<stampBits-1
	if c.stampMax <= uint64(cfg.Ways) {
		panic(fmt.Sprintf("cache %s: %d-bit stamps cannot order %d ways", cfg.Name, stampBits, cfg.Ways))
	}
	if cfg.Prefetcher != nil {
		c.pf = newStridePrefetcher(*cfg.Prefetcher)
	}
	return c
}

func (c *Cache) lineAddr(addr uint64) uint64 { return addr >> c.lineBits }

func (c *Cache) set(la uint64) []line {
	i := int(la&c.setMask) * c.cfg.Ways
	return c.lines[i : i+c.cfg.Ways : i+c.cfg.Ways]
}

func (c *Cache) stamp(l line) uint64 { return uint64(l) >> 1 & c.stampMax }

// restamp makes l, a line of la's set holding la, the set's most
// recent, dirty if it was or if dirty is 1.
func (c *Cache) restamp(l *line, la, dirty uint64) {
	set := la & c.setMask
	if uint64(c.clock[set]) == c.stampMax {
		c.renumber(set)
	}
	c.clock[set]++
	*l = line(la>>c.setBits<<c.tagShift | uint64(c.clock[set])<<1 | l.dirty() | dirty)
}

// renumber gives the valid lines of a set whose clock has run out the
// stamps 1..n in their recency order, and the clock n.
func (c *Cache) renumber(set uint64) {
	s := c.lines[int(set)*c.cfg.Ways : int(set+1)*c.cfg.Ways]
	var n uint64
	for last := uint64(0); ; n++ {
		next := -1 // the line with the least stamp above last
		for i, l := range s {
			if st := c.stamp(l); st > last && (next < 0 || st < c.stamp(s[next])) {
				next = i
			}
		}
		if next < 0 {
			break
		}
		last = c.stamp(s[next])
		s[next] = s[next]&^line(c.stampMax<<1) | line((n+1)<<1)
	}
	c.clock[set] = uint32(n)
}

// lookup probes the cache without filling.
func (c *Cache) lookup(la uint64) *line {
	s, tag := c.set(la), la>>c.setBits
	for i := range s {
		if s[i] != 0 && uint64(s[i])>>c.tagShift == tag {
			return &s[i]
		}
	}
	return nil
}

// fill inserts la, evicting LRU; returns true when a dirty line was
// written back.
func (c *Cache) fill(la uint64, dirty bool, now uint64) bool {
	s := c.set(la)
	victim := 0
	for i := range s {
		if s[i] == 0 {
			victim = i
			break
		}
		if c.stamp(s[i]) < c.stamp(s[victim]) {
			victim = i
		}
	}
	wb := s[victim].dirty() != 0 && c.cfg.WriteBack
	if wb {
		c.Writebacks++
		if c.next != nil {
			// Writeback traffic occupies the next level but completes
			// in the background.
			old := uint64(s[victim])>>c.tagShift<<c.setBits | la&c.setMask
			c.next.Access(old<<c.lineBits, true, 0, now)
		}
	}
	s[victim] = 0
	c.restamp(&s[victim], la, b2u(dirty))
	return wb
}

// reapMSHRs drops completed entries and reports live count.
func (c *Cache) reapMSHRs(now uint64) int {
	live := c.mshrs[:0]
	for _, e := range c.mshrs {
		if e.ready > now {
			live = append(live, e)
		}
	}
	c.mshrs = live
	return len(live)
}

// Access implements Level.
func (c *Cache) Access(addr uint64, write bool, pc uint64, now uint64) uint64 {
	c.Accesses++
	la := c.lineAddr(addr)

	if c.pf != nil && !write {
		for _, pfAddr := range c.pf.observe(pc, addr) {
			c.prefetch(pfAddr, now)
		}
	}

	if l := c.lookup(la); l != nil {
		c.restamp(l, la, b2u(write))
		ready := now + c.cfg.Latency
		// Lines are installed when the miss is issued, so a "hit" may
		// be to a line whose fill is still in flight: such an access
		// merges into the outstanding MSHR and waits for the data.
		for _, e := range c.mshrs {
			if e.addr == la && e.ready > ready {
				c.MSHRMerges++
				ready = e.ready
			}
		}
		return ready
	}

	c.Misses++

	start := now + c.cfg.Latency
	if c.cfg.MSHRs > 0 && c.reapMSHRs(now) >= c.cfg.MSHRs {
		// All miss registers busy: the request waits for the earliest
		// one to free up.
		c.MSHRStalls++
		earliest := c.mshrs[0].ready
		for _, e := range c.mshrs[1:] {
			if e.ready < earliest {
				earliest = e.ready
			}
		}
		if earliest > start {
			start = earliest
		}
	}

	var ready uint64
	if c.next != nil {
		ready = c.next.Access(addr, false, pc, start)
	} else {
		ready = start
	}
	if ready < start {
		ready = start
	}
	c.mshrs = append(c.mshrs, mshrEntry{addr: la, ready: ready})
	c.fill(la, write, now)
	return ready
}

// prefetch brings a line into this cache without charging any
// requester; it consumes an MSHR only if one is free (prefetches are
// dropped under pressure, as real prefetchers are).
func (c *Cache) prefetch(addr uint64, now uint64) {
	la := c.lineAddr(addr)
	if c.lookup(la) != nil {
		return
	}
	for _, e := range c.mshrs {
		if e.addr == la {
			return
		}
	}
	if c.cfg.MSHRs > 0 && c.reapMSHRs(now) >= c.cfg.MSHRs {
		return
	}
	c.Prefetches++
	var ready uint64 = now + c.cfg.Latency
	if c.next != nil {
		ready = c.next.Access(addr, false, 0, now+c.cfg.Latency)
	}
	c.mshrs = append(c.mshrs, mshrEntry{addr: la, ready: ready})
	c.fill(la, false, now)
}

// MissRate reports misses per access.
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// Name returns the configured cache name.
func (c *Cache) Name() string { return c.cfg.Name }
