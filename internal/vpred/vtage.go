package vpred

import "eole/internal/bpred"

// VTAGEConfig sizes the VTAGE predictor. Defaults reproduce Table 2:
// an 8192-entry tagless base plus 6 × 1024-entry tagged components
// with 12+rank tags, indexed with geometric global branch history
// lengths. A tagged component has 1<<bpred.IndexBits entries, and
// component r's tags are bpred.TagBits+r+1 bits wide.
type VTAGEConfig struct {
	BaseBits    int // log2 base entries
	NumTagged   int
	MinHist     int
	MaxHist     int
	UResetEvery uint64
	FPC         FPCVector
}

// DefaultVTAGEConfig returns the Table 2 layout (64.1KB in the paper's
// accounting).
func DefaultVTAGEConfig() VTAGEConfig {
	return VTAGEConfig{
		BaseBits:    13,
		NumTagged:   6,
		MinHist:     2,
		MaxHist:     64,
		UResetEvery: 1 << 19,
		FPC:         DefaultFPCVector(),
	}
}

type vtageBaseEntry struct {
	value uint64
	conf  uint8
}

// vtageEntry is a tagged component's payload; its tag lives apart, in
// the tag array (vtageTags).
type vtageEntry struct {
	value uint64
	conf  uint8
	u     uint8 // 1-bit useful
}

// VTAGE is the context-based value predictor of Perais & Seznec
// (HPCA 2014). Like the ITTAGE indirect branch predictor it selects
// predictions with the global branch history, so — unlike stride
// predictors — it does not need the previous value of the instruction
// to predict the current one and needs no in-flight speculative state.
type VTAGE struct {
	cfg    VTAGEConfig
	base   []vtageBaseEntry
	comp   []vtageEntry // component i's row ix at i<<bpred.IndexBits | ix
	fpc    *FPC
	tagged vtageTags

	look   vtageLookup
	trains uint64
}

// vtageTags is what VTAGE and D-VTAGE share: every tagged component's
// window in the front end's global branch history, and the tags of
// every component, kept apart from the entries so that a probe walks
// the small tag array and reads payload only on a hit.
type vtageTags struct {
	hist    *bpred.History
	win     []int    // each component's window in hist
	tagMask []uint32 // per-component "12 + rank" tag masks (Table 2)
	tags    []uint32 // component i's row ix at i<<bpred.IndexBits | ix
}

func newVTAGETags(cfg VTAGEConfig, h *bpred.History) vtageTags {
	t := vtageTags{hist: h, tags: make([]uint32, cfg.NumTagged<<bpred.IndexBits)}
	for i, n := range bpred.GeometricLengths(cfg.MinHist, cfg.MaxHist, cfg.NumTagged) {
		width := bpred.TagBits + i + 1 // "12 + rank" per Table 2
		if width > 30 {
			width = 30
		}
		t.win = append(t.win, h.Window(n))
		t.tagMask = append(t.tagMask, uint32(1<<width)-1)
	}
	return t
}

// probe hashes pc with each component's history, longest first, into
// l's rows and tags until a component's tag matches, and returns that
// component, or -1. The components below a match are not hashed:
// neither the provider nor allocation reads them.
func (t *vtageTags) probe(pc uint64, l *vtageLookup) int {
	pcIdx := uint32(pc>>2) ^ uint32(pc>>(2+bpred.IndexBits))
	pcTag := uint32(pc>>2) ^ uint32(pc>>17)
	for i := len(t.win) - 1; i >= 0; i-- {
		fIdx, fTag, fTag2 := t.hist.Folds(t.win[i])
		l.rows[i] = uint32(i)<<bpred.IndexBits | (pcIdx^fIdx^uint32(i*0x1F))&(1<<bpred.IndexBits-1)
		l.tags[i] = (pcTag ^ fTag ^ fTag2<<1) & t.tagMask[i]
		if t.tags[l.rows[i]] == l.tags[i] {
			return i
		}
	}
	return -1
}

// vtageLookup is what a (D-)VTAGE Lookup leaves behind for the paired
// Train: the provider component, the value it predicted, and the row
// and tag under the history of the lookup of the provider and every
// component above it (the allocation candidates on a misprediction).
type vtageLookup struct {
	comp  int // provider component (-1 = base)
	value uint64
	rows  []uint32 // NumTagged of each
	tags  []uint32
}

func newVTAGELookup(cfg VTAGEConfig) vtageLookup {
	return vtageLookup{rows: make([]uint32, cfg.NumTagged), tags: make([]uint32, cfg.NumTagged)}
}

// NewVTAGE builds a VTAGE predictor from cfg, indexed by the global
// branch history h, whose windows it registers.
func NewVTAGE(cfg VTAGEConfig, h *bpred.History) *VTAGE {
	return &VTAGE{
		cfg:    cfg,
		base:   make([]vtageBaseEntry, 1<<cfg.BaseBits),
		comp:   make([]vtageEntry, cfg.NumTagged<<bpred.IndexBits),
		fpc:    NewFPC(cfg.FPC),
		tagged: newVTAGETags(cfg, h),
		look:   newVTAGELookup(cfg),
	}
}

// Name implements Predictor.
func (v *VTAGE) Name() string { return "VTAGE" }

// StorageBits implements Predictor, following Table 2's accounting
// (base entries carry value+conf; tagged entries add 12+rank tags and
// a useful bit).
func (v *VTAGE) StorageBits() int {
	return len(v.base)*(64+3) + taggedBits(v.cfg, 64)
}

// taggedBits is the storage of cfg's tagged components whose entries
// hold payload bits, a confidence counter, a useful bit and a 12+rank
// tag.
func taggedBits(cfg VTAGEConfig, payload int) int {
	bits := 0
	for r := 0; r < cfg.NumTagged; r++ {
		bits += (payload + 3 + 1 + bpred.TagBits + (r + 1)) << bpred.IndexBits
	}
	return bits
}

// Lookup implements Predictor.
func (v *VTAGE) Lookup(pc uint64) Prediction {
	l := &v.look
	if i := v.tagged.probe(pc, l); i >= 0 {
		e := &v.comp[l.rows[i]]
		l.comp, l.value = i, e.value
		return Prediction{Value: e.value, Use: Confident(e.conf), Hit: true}
	}
	// Base component: tagless last-value table.
	e := &v.base[tableIndex(pc, v.cfg.BaseBits)]
	l.comp, l.value = -1, e.value
	return Prediction{Value: e.value, Use: Confident(e.conf), Hit: true}
}

// Train implements Predictor.
func (v *VTAGE) Train(pc uint64, actual uint64) {
	v.trains++
	if v.cfg.UResetEvery > 0 && v.trains%v.cfg.UResetEvery == 0 {
		v.clearUseful()
	}

	l := &v.look
	correct := l.value == actual
	if l.comp >= 0 {
		e := &v.comp[l.rows[l.comp]]
		if correct {
			v.fpc.Bump(&e.conf, true)
			e.u = 1
		} else {
			if e.conf == 0 {
				// Unconfident and wrong: replace the value in place.
				e.value = actual
				e.u = 0
			}
			e.conf = 0
		}
	} else {
		e := &v.base[tableIndex(pc, v.cfg.BaseBits)]
		if correct {
			v.fpc.Bump(&e.conf, true)
		} else {
			if e.conf == 0 {
				e.value = actual
			}
			e.conf = 0
		}
	}

	// Allocate a longer-history entry on a misprediction, as in
	// (I)TAGE: claim one not-useful victim, otherwise decay.
	if !correct {
		v.allocate(actual)
	}
}

func (v *VTAGE) allocate(actual uint64) {
	l := &v.look
	start := l.comp + 1
	for i := start; i < len(l.rows); i++ {
		e := &v.comp[l.rows[i]]
		if e.u == 0 {
			*e = vtageEntry{value: actual}
			v.tagged.tags[l.rows[i]] = l.tags[i]
			return
		}
	}
	for i := start; i < len(l.rows); i++ {
		v.comp[l.rows[i]].u = 0
	}
}

func (v *VTAGE) clearUseful() {
	for i := range v.comp {
		v.comp[i].u = 0
	}
}
