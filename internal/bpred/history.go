package bpred

import "math"

// The fold layout every tagged component of TAGE and VTAGE shares: a
// window is folded to an IndexBits-wide index (log2 of a tagged
// component's entries) and to two tag folds, TagBits and TagBits-1
// wide. The three folds are lanes of one word, lane 0 at bit 0, each
// one bit wider than its fold; the extra bit catches what a shift
// pushes out of the top, and Push folds it back to bit 0. Every lane is
// the classic TAGE circular-shift register: a fold of width w over a
// window of n bits equals the XOR over i < n of h[i] << (i % w), h[0]
// the newest bit.
const (
	IndexBits = 10
	TagBits   = 12

	tagShift  = IndexBits + 1
	tag2Shift = tagShift + TagBits + 1
	laneLow   = 1 | 1<<tagShift | 1<<tag2Shift // bit 0 of every lane
	laneKeep  = 1<<IndexBits - 1 | (1<<TagBits-1)<<tagShift | (1<<(TagBits-1)-1)<<tag2Shift

	// maxWindow is the longest window a predictor may register.
	maxWindow = 1024
	histLen   = 2 * maxWindow // the bit ring, longer than any window
)

// History is the front end's global branch history, the one register
// TAGE and the value predictor both read: a ring of branch outcomes and
// one fold word per distinct window a predictor registered. The branch
// unit pushes each branch into it once.
type History struct {
	bits   [histLen]uint8
	head   int // position of the newest bit
	folds  []fold
	pushed bool
}

// fold is one registered window's three folds, as lanes of word.
type fold struct {
	word uint64
	out  uint64 // where the bit leaving the window enters each lane
	n    int    // window length in bits
}

// NewHistory returns an empty history with no windows.
func NewHistory() *History { return &History{} }

// Window registers a window of the n newest bits and returns its index
// for Folds; a length registered before returns the same index. Every
// predictor registers its windows at construction: after the first Push
// a new window would start from folds of bits it never saw, so Window
// panics.
func (h *History) Window(n int) int {
	if h.pushed {
		panic("bpred: history window registered after the first Push")
	}
	for i, f := range h.folds {
		if f.n == n {
			return i
		}
	}
	if n < 0 || n > maxWindow {
		panic("bpred: history window out of range")
	}
	out := uint64(1)<<(n%IndexBits) | 1<<(tagShift+n%TagBits) | 1<<(tag2Shift+n%(TagBits-1))
	h.folds = append(h.folds, fold{out: out, n: n})
	return len(h.folds) - 1
}

// Push records a branch outcome as the newest bit and advances every
// window's folds: the new bit enters every lane, and the bit leaving
// the window is taken back out of each.
func (h *History) Push(taken bool) {
	h.pushed = true
	h.head = (h.head + 1) & (histLen - 1)
	var in uint64
	if taken {
		in = 1
	}
	h.bits[h.head] = uint8(in)
	in *= laneLow
	folds := h.folds
	for i := range folds {
		f := &folds[i]
		w := f.word<<1 | in ^ uint64(h.bits[(h.head-f.n)&(histLen-1)])*f.out
		w ^= w>>IndexBits&1 | w>>TagBits&(1<<tagShift) | w>>(TagBits-1)&(1<<tag2Shift)
		f.word = w & laneKeep
	}
}

// Folds returns window i's index fold and its two tag folds.
func (h *History) Folds(i int) (idx, tag, tag2 uint32) {
	w := h.folds[i].word
	return uint32(w) & (1<<IndexBits - 1), uint32(w>>tagShift) & (1<<TagBits - 1), uint32(w>>tag2Shift) & (1<<(TagBits-1) - 1)
}

// bit returns the i'th most recent outcome (i = 0 is the newest).
func (h *History) bit(i int) uint8 { return h.bits[(h.head-i)&(histLen-1)] }

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
