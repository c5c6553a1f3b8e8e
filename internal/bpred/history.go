package bpred

import "math"

// GlobalHistory is a long circular branch-direction history. TAGE
// components index it through their Folds, which maintain an O(1)
// folded hash of the most recent L bits.
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

// FoldLanes is the layout of a Folds word: the three folds a tagged
// component keeps over its history window — the index fold and the two
// tag folds — side by side, lane 0 at bit 0. Each lane is one bit wider
// than its fold; the extra bit catches what a shift pushes out of the
// top, and Update folds it back to bit 0. Every lane is the classic TAGE
// circular-shift register: fold k equals the XOR over i < origLen of
// h[i] << (i % width[k]), h[0] the newest bit. One layout serves every
// component of a predictor, since all of them fold to the same widths.
type FoldLanes struct {
	width [3]uint   // fold widths
	shift [3]uint   // lane offsets
	low   [3]uint64 // bit 0 of each lane
	fold  [3]uint64 // the fold bits of each lane
	in    uint64    // bit 0 of every lane
	keep  uint64    // the fold bits of every lane, carries excluded
}

// Folds is one tagged component's three folds as lanes of one word,
// laid out by its predictor's FoldLanes.
type Folds struct {
	word uint64
	out  uint64 // where the bit leaving the window enters each lane
}

// NewFoldLanes lays out three folds of 1 to 31 bits in one word, which
// must hold their widths plus a carry bit each.
func NewFoldLanes(w0, w1, w2 int) FoldLanes {
	var l FoldLanes
	off := uint(0)
	for k, w := range [3]int{w0, w1, w2} {
		if w < 1 || w > 31 {
			panic("bpred: fold lane width out of range")
		}
		l.width[k], l.shift[k], l.low[k] = uint(w), off, 1<<off
		l.fold[k] = (1<<uint(w) - 1) << off
		l.in |= l.low[k]
		l.keep |= l.fold[k]
		off += uint(w) + 1
	}
	if off > 64 {
		panic("bpred: fold lanes wider than a word")
	}
	return l
}

// New returns zeroed folds over a window of origLen history bits.
func (l *FoldLanes) New(origLen int) Folds {
	var f Folds
	for k := range l.width {
		f.out |= l.low[k] << (uint(origLen) % l.width[k])
	}
	return f
}

// Update advances f by one history bit: in, the newest bit, enters
// every lane, and out, the bit leaving the origLen window, is taken
// back out of each.
func (l *FoldLanes) Update(f *Folds, in, out uint64) {
	w := f.word<<1 | in*l.in ^ out*f.out
	// Shift counts are below 64 (NewFoldLanes); the masks tell the
	// compiler, which otherwise guards every variable shift.
	w ^= w>>(l.width[0]&63)&l.low[0] | w>>(l.width[1]&63)&l.low[1] | w>>(l.width[2]&63)&l.low[2]
	f.word = w & l.keep
}

// Lane returns fold k of f: 0 is the index fold, 1 and 2 the tag folds.
func (l *FoldLanes) Lane(f Folds, k int) uint32 {
	return uint32(f.word & l.fold[k] >> (l.shift[k] & 63))
}

// TaggedHistory is the global history a TAGE-like predictor indexes its
// tagged components with, and the Folds of each component's window.
type TaggedHistory struct {
	hist  *GlobalHistory
	lanes FoldLanes
	folds []Folds
	lens  []int
}

// NewTaggedHistory keeps one Folds per history length in lens (the
// longest last), its lanes idxBits, tagBits and tagBits-1 wide.
func NewTaggedHistory(lens []int, idxBits, tagBits int) TaggedHistory {
	h := TaggedHistory{
		hist:  NewGlobalHistory(lens[len(lens)-1] + 1),
		lanes: NewFoldLanes(idxBits, tagBits, tagBits-1),
		folds: make([]Folds, len(lens)),
		lens:  lens,
	}
	for i, n := range lens {
		h.folds[i] = h.lanes.New(n)
	}
	return h
}

// Push appends a branch outcome and advances every component's folds.
func (h *TaggedHistory) Push(taken bool) {
	h.hist.Push(taken)
	in := uint64(h.hist.Bit(0))
	for i := range h.folds {
		h.lanes.Update(&h.folds[i], in, uint64(h.hist.Bit(h.lens[i])))
	}
}

// Folds returns component i's index fold and its two tag folds.
func (h *TaggedHistory) Folds(i int) (idx, tag, tag2 uint32) {
	f := h.folds[i]
	return h.lanes.Lane(f, 0), h.lanes.Lane(f, 1), h.lanes.Lane(f, 2)
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
