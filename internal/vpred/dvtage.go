package vpred

import "eole/internal/bpred"

// DVTAGE is a storage-effective variant of VTAGE in the direction the
// paper's §7 points ("future research includes the need to look for
// more storage-effective value prediction schemes"), anticipating the
// authors' later differential design: tagged components store small
// signed *differences* against the base component's last value instead
// of full 64-bit values. A tagged entry needs StrideBits instead of 64
// bits; predictions whose difference does not fit simply cannot be
// learned by the tagged components (the base still covers them).
//
// Unlike pure VTAGE, the base is a last-value table that trains on
// every outcome, and tagged components predict base.last + delta
// selected by the global branch history.
type DVTAGE struct {
	cfg        VTAGEConfig
	strideBits int
	base       []dvBaseEntry
	comp       [][]dvEntry
	fpc        *FPC

	hist *histState

	look   vtageLookup
	trains uint64
}

type dvBaseEntry struct {
	last uint64
	conf uint8
}

type dvEntry struct {
	tag   uint32
	delta int32 // sign-extended StrideBits-wide difference
	conf  uint8
	u     uint8
}

// histState bundles the global-branch-history index/tag plumbing
// (same construction as VTAGE's).
type histState struct {
	hist *bpred.GlobalHistory
	fIdx []*bpred.FoldedHistory
	fTag []*bpred.FoldedHistory
	fTg2 []*bpred.FoldedHistory
}

func newHistState(cfg VTAGEConfig) *histState {
	h := &histState{hist: bpred.NewGlobalHistory(cfg.MaxHist + 16)}
	lens := bpred.GeometricLengths(cfg.MinHist, cfg.MaxHist, cfg.NumTagged)
	for i := 0; i < cfg.NumTagged; i++ {
		h.fIdx = append(h.fIdx, bpred.NewFoldedHistory(lens[i], cfg.TaggedBits))
		h.fTag = append(h.fTag, bpred.NewFoldedHistory(lens[i], cfg.TagWidth))
		h.fTg2 = append(h.fTg2, bpred.NewFoldedHistory(lens[i], cfg.TagWidth-1))
	}
	return h
}

func (h *histState) push(taken bool) {
	h.hist.Push(taken)
	for i := range h.fIdx {
		h.fIdx[i].Update(h.hist)
		h.fTag[i].Update(h.hist)
		h.fTg2[i].Update(h.hist)
	}
}

func (h *histState) index(pc uint64, comp int, cfg VTAGEConfig) uint32 {
	mask := uint32(1<<cfg.TaggedBits) - 1
	v := uint32(pc>>2) ^ uint32(pc>>(2+uint(cfg.TaggedBits))) ^ h.fIdx[comp].Value() ^ uint32(comp*0x1F)
	return v & mask
}

func (h *histState) tag(pc uint64, comp int, cfg VTAGEConfig) uint32 {
	width := cfg.TagWidth + comp + 1
	if width > 30 {
		width = 30
	}
	mask := uint32(1<<width) - 1
	return (uint32(pc>>2) ^ h.fTag[comp].Value() ^ (h.fTg2[comp].Value() << 1) ^ uint32(pc>>17)) & mask
}

// NewDVTAGE builds a differential VTAGE with the given layout and
// per-delta budget of strideBits (≤ 32).
func NewDVTAGE(cfg VTAGEConfig, strideBits int) *DVTAGE {
	if strideBits < 4 {
		strideBits = 4
	}
	if strideBits > 32 {
		strideBits = 32
	}
	d := &DVTAGE{
		cfg:        cfg,
		strideBits: strideBits,
		base:       make([]dvBaseEntry, 1<<cfg.BaseBits),
		fpc:        NewFPC(cfg.FPC),
		look:       newVTAGELookup(cfg),
	}
	d.hist = newHistState(cfg)
	for i := 0; i < cfg.NumTagged; i++ {
		d.comp = append(d.comp, make([]dvEntry, 1<<cfg.TaggedBits))
	}
	return d
}

// Name implements Predictor.
func (d *DVTAGE) Name() string { return "D-VTAGE" }

// StorageBits implements Predictor: the point of the design — tagged
// entries carry StrideBits-wide deltas instead of 64-bit values.
func (d *DVTAGE) StorageBits() int {
	bits := len(d.base) * (64 + 3)
	for r := range d.comp {
		bits += len(d.comp[r]) * (d.strideBits + 3 + 1 + d.cfg.TagWidth + (r + 1))
	}
	return bits
}

// PushBranch implements Predictor.
func (d *DVTAGE) PushBranch(taken bool) { d.hist.push(taken) }

// Lookup implements Predictor.
func (d *DVTAGE) Lookup(pc uint64) Prediction {
	l := &d.look
	for i := range l.indices {
		l.indices[i] = d.hist.index(pc, i, d.cfg)
		l.tags[i] = d.hist.tag(pc, i, d.cfg)
	}
	base := &d.base[tableIndex(pc, d.cfg.BaseBits)]

	for i := len(l.indices) - 1; i >= 0; i-- {
		e := &d.comp[i][l.indices[i]]
		if e.tag == l.tags[i] {
			l.comp, l.value = i, base.last+uint64(int64(e.delta))
			return Prediction{Value: l.value, Use: Confident(e.conf), Hit: true}
		}
	}
	l.comp, l.value = -1, base.last
	return Prediction{Value: base.last, Use: Confident(base.conf), Hit: true}
}

// deltaFits reports whether diff is representable in strideBits.
func (d *DVTAGE) deltaFits(diff int64) bool {
	limit := int64(1) << (d.strideBits - 1)
	return diff >= -limit && diff < limit
}

// Train implements Predictor.
func (d *DVTAGE) Train(pc uint64, actual uint64) {
	d.trains++
	if d.cfg.UResetEvery > 0 && d.trains%d.cfg.UResetEvery == 0 {
		for _, c := range d.comp {
			for i := range c {
				c[i].u = 0
			}
		}
	}

	l := &d.look
	correct := l.value == actual
	// Still the last value the prediction was made against: nothing has
	// trained since the paired Lookup.
	base := &d.base[tableIndex(pc, d.cfg.BaseBits)]

	if l.comp >= 0 {
		e := &d.comp[l.comp][l.indices[l.comp]]
		if correct {
			d.fpc.Bump(&e.conf, true)
			e.u = 1
		} else {
			if e.conf == 0 {
				// Re-learn the delta against the base value the
				// prediction used.
				if diff := int64(actual - base.last); d.deltaFits(diff) {
					e.delta = int32(diff)
				}
				e.u = 0
			}
			e.conf = 0
		}
	} else {
		if correct {
			d.fpc.Bump(&base.conf, true)
		} else {
			base.conf = 0
		}
	}

	if !correct {
		d.allocate(int64(actual - base.last))
	}
	// The base is a plain last-value table: always tracks the outcome.
	base.last = actual
}

// allocate claims a longer-history entry for diff, the outcome's
// difference against the base value.
func (d *DVTAGE) allocate(diff int64) {
	if !d.deltaFits(diff) {
		return // not representable: leave it to the base component
	}
	l := &d.look
	start := l.comp + 1
	for i := start; i < len(l.indices); i++ {
		e := &d.comp[i][l.indices[i]]
		if e.u == 0 {
			*e = dvEntry{tag: l.tags[i], delta: int32(diff)}
			return
		}
	}
	for i := start; i < len(l.indices); i++ {
		d.comp[i][l.indices[i]].u = 0
	}
}
