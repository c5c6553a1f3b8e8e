package bpred

// BTB is a set-associative branch target buffer with true-LRU
// replacement inside each set. Table 1: "2-way 4K-entry BTB". Its
// entries are one array: set i is entries[i*ways:(i+1)*ways].
type BTB struct {
	ways    int
	setMask uint64
	entries []btbEntry
	lookups uint64
	misses  uint64
}

type btbEntry struct {
	valid  bool
	tag    uint64
	target uint64
	lru    uint64 // last-use stamp
}

// NewBTB builds a BTB with the given total entries and associativity.
func NewBTB(entries, ways int) *BTB {
	numSets := entries / ways
	if numSets < 1 {
		numSets = 1
	}
	// Round down to a power of two for masking.
	n := 1
	for n*2 <= numSets {
		n *= 2
	}
	return &BTB{ways: ways, setMask: uint64(n - 1), entries: make([]btbEntry, n*ways)}
}

func (b *BTB) set(pc uint64) []btbEntry {
	i := int((pc>>2)&b.setMask) * b.ways
	return b.entries[i : i+b.ways : i+b.ways]
}

// Lookup returns the predicted target for pc, if any.
func (b *BTB) Lookup(pc uint64) (target uint64, hit bool) {
	b.lookups++
	s := b.set(pc)
	for i := range s {
		if s[i].valid && s[i].tag == pc {
			s[i].lru = b.lookups
			return s[i].target, true
		}
	}
	b.misses = b.misses + 1
	return 0, false
}

// Insert records the target of a taken branch, replacing the LRU way.
func (b *BTB) Insert(pc, target uint64) {
	s := b.set(pc)
	victim := 0
	for i := range s {
		if s[i].valid && s[i].tag == pc {
			s[i].target = target
			s[i].lru = b.lookups
			return
		}
		if !s[i].valid {
			victim = i
			break
		}
		if s[i].lru < s[victim].lru {
			victim = i
		}
	}
	s[victim] = btbEntry{valid: true, tag: pc, target: target, lru: b.lookups}
}

// MissRate reports the fraction of lookups that missed.
func (b *BTB) MissRate() float64 {
	if b.lookups == 0 {
		return 0
	}
	return float64(b.misses) / float64(b.lookups)
}

// RAS is a fixed-depth return address stack with wrap-around, matching
// Table 1's "32-entry RAS". Overflow silently wraps (oldest entries are
// lost), as in hardware.
type RAS struct {
	stack []uint64
	top   int
	depth int // valid entries, capped at len(stack)
}

// NewRAS returns a RAS with n entries.
func NewRAS(n int) *RAS {
	return &RAS{stack: make([]uint64, n)}
}

// Push records a return address at a call.
func (r *RAS) Push(addr uint64) {
	r.top = (r.top + 1) % len(r.stack)
	r.stack[r.top] = addr
	if r.depth < len(r.stack) {
		r.depth++
	}
}

// Pop predicts the target of a return. ok is false when the stack has
// underflowed (prediction must then come from the BTB).
func (r *RAS) Pop() (addr uint64, ok bool) {
	if r.depth == 0 {
		return 0, false
	}
	addr = r.stack[r.top]
	r.top = (r.top - 1 + len(r.stack)) % len(r.stack)
	r.depth--
	return addr, true
}

// Depth returns the number of live entries.
func (r *RAS) Depth() int { return r.depth }
