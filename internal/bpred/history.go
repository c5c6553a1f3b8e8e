package bpred

import "math"

// GlobalHistory is a long circular branch-direction history. TAGE
// components index it through FoldedHistory registers, which maintain
// an O(1) folded hash of the most recent L bits.
type GlobalHistory struct {
	bits []uint8
	head int // position of the most recent bit
}

// NewGlobalHistory returns a history holding capacity bits (rounded up
// to a power of two).
func NewGlobalHistory(capacity int) *GlobalHistory {
	n := 1
	for n < capacity {
		n <<= 1
	}
	return &GlobalHistory{bits: make([]uint8, n)}
}

// Len returns the history capacity in bits.
func (h *GlobalHistory) Len() int { return len(h.bits) }

// Push records a branch outcome as the newest history bit.
func (h *GlobalHistory) Push(taken bool) {
	h.head = (h.head + 1) & (len(h.bits) - 1)
	if taken {
		h.bits[h.head] = 1
	} else {
		h.bits[h.head] = 0
	}
}

// Bit returns the i'th most recent outcome (i = 0 is the newest).
func (h *GlobalHistory) Bit(i int) uint8 {
	return h.bits[(h.head-i)&(len(h.bits)-1)]
}

// FoldedHistory incrementally maintains a compLen-bit fold (XOR) of the
// most recent origLen history bits, the classic TAGE circular-shift
// register construction. The register is 32 bits, so a fold is at most
// 31 bits wide.
type FoldedHistory struct {
	value   uint32
	origLen int
	compLen int
	outPos  int // position of the evicted bit within the fold
}

// NewFoldedHistory folds origLen history bits into compLen bits.
func NewFoldedHistory(origLen, compLen int) *FoldedHistory {
	if compLen <= 0 {
		compLen = 1
	}
	if compLen > 31 {
		compLen = 31
	}
	return &FoldedHistory{
		origLen: origLen,
		compLen: compLen,
		outPos:  origLen % compLen,
	}
}

// Value returns the current folded hash. value is kept masked to
// compLen bits by UpdateBits (and starts at zero), so this is a plain
// load on the TAGE/VTAGE lookup paths.
func (f *FoldedHistory) Value() uint32 { return f.value }

// Update shifts in the newest history bit; h must already contain it
// (call after GlobalHistory.Push).
func (f *FoldedHistory) Update(h *GlobalHistory) {
	f.UpdateBits(uint32(h.Bit(0)), uint32(h.Bit(f.origLen)))
}

// UpdateBits is Update with the in/out bits already read from the
// history: in is the newest bit, out the bit falling out of the
// origLen window. Callers that keep several folds over the same window
// (TAGE's index and tag folds share a component's history length) read
// the two bits once and fan them out.
func (f *FoldedHistory) UpdateBits(in, out uint32) {
	// Both counts are below 32 (see NewFoldedHistory); the masks tell
	// the compiler, which otherwise guards every shift against an
	// oversized count — three guards a fold, 54 folds a branch.
	outPos, compLen := uint(f.outPos)&31, uint(f.compLen)&31
	f.value = (f.value << 1) | in
	f.value ^= out << outPos
	f.value ^= f.value >> compLen
	f.value &= (1 << compLen) - 1
}

// GeometricLengths returns n history lengths forming a geometric
// series from min to max (inclusive), as used by TAGE and VTAGE.
func GeometricLengths(min, max, n int) []int {
	if n == 1 {
		return []int{min}
	}
	out := make([]int, n)
	ratio := float64(max) / float64(min)
	for i := 0; i < n; i++ {
		exp := float64(i) / float64(n-1)
		l := int(0.5 + float64(min)*math.Pow(ratio, exp))
		if i > 0 && l <= out[i-1] {
			l = out[i-1] + 1
		}
		out[i] = l
	}
	return out
}
