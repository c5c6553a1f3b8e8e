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
	comp       []dvEntry // component i's row ix at i<<bpred.IndexBits | ix
	fpc        *FPC
	tagged     vtageTags

	look   vtageLookup
	trains uint64
}

type dvBaseEntry struct {
	last uint64
	conf uint8
}

// dvEntry is a tagged component's payload; its tag lives apart, in
// the tag array (vtageTags).
type dvEntry struct {
	delta int32 // sign-extended StrideBits-wide difference
	conf  uint8
	u     uint8
}

// NewDVTAGE builds a differential VTAGE with the given layout and
// per-delta budget of strideBits (≤ 32), indexed by the global branch
// history h, whose windows it registers.
func NewDVTAGE(cfg VTAGEConfig, strideBits int, h *bpred.History) *DVTAGE {
	if strideBits < 4 {
		strideBits = 4
	}
	if strideBits > 32 {
		strideBits = 32
	}
	return &DVTAGE{
		cfg:        cfg,
		strideBits: strideBits,
		base:       make([]dvBaseEntry, 1<<cfg.BaseBits),
		comp:       make([]dvEntry, cfg.NumTagged<<bpred.IndexBits),
		fpc:        NewFPC(cfg.FPC),
		tagged:     newVTAGETags(cfg, h),
		look:       newVTAGELookup(cfg),
	}
}

// Name implements Predictor.
func (d *DVTAGE) Name() string { return "D-VTAGE" }

// StorageBits implements Predictor: the point of the design — tagged
// entries carry StrideBits-wide deltas instead of 64-bit values.
func (d *DVTAGE) StorageBits() int {
	return len(d.base)*(64+3) + taggedBits(d.cfg, d.strideBits)
}

// Lookup implements Predictor.
func (d *DVTAGE) Lookup(pc uint64) Prediction {
	l := &d.look
	base := &d.base[tableIndex(pc, d.cfg.BaseBits)]
	if i := d.tagged.probe(pc, l); i >= 0 {
		e := &d.comp[l.rows[i]]
		l.comp, l.value = i, base.last+uint64(int64(e.delta))
		return Prediction{Value: l.value, Use: Confident(e.conf), Hit: true}
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
		for i := range d.comp {
			d.comp[i].u = 0
		}
	}

	l := &d.look
	correct := l.value == actual
	// Still the last value the prediction was made against: nothing has
	// trained since the paired Lookup.
	base := &d.base[tableIndex(pc, d.cfg.BaseBits)]

	if l.comp >= 0 {
		e := &d.comp[l.rows[l.comp]]
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
	for i := start; i < len(l.rows); i++ {
		e := &d.comp[l.rows[i]]
		if e.u == 0 {
			*e = dvEntry{delta: int32(diff)}
			d.tagged.tags[l.rows[i]] = l.tags[i]
			return
		}
	}
	for i := start; i < len(l.rows); i++ {
		d.comp[l.rows[i]].u = 0
	}
}
