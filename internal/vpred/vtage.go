package vpred

import "eole/internal/bpred"

// VTAGEConfig sizes the VTAGE predictor. Defaults reproduce Table 2:
// an 8192-entry tagless base plus 6 × 1024-entry tagged components
// with 12+rank tags, indexed with geometric global branch history
// lengths.
type VTAGEConfig struct {
	BaseBits    int // log2 base entries
	NumTagged   int
	TaggedBits  int // log2 entries per tagged component
	TagWidth    int // base tag width; component r uses TagWidth+r bits
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
		TaggedBits:  10,
		TagWidth:    12,
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
// the component's tag array (vtageTags).
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
	comp   [][]vtageEntry
	fpc    *FPC
	tagged vtageTags

	look   vtageLookup
	trains uint64
}

// vtageTags is what VTAGE and D-VTAGE share: the global branch history
// with every tagged component's folds of it, and every component's tag
// array, kept apart from the entries so that a probe walks the small
// tag arrays and reads payload only on a hit.
type vtageTags struct {
	hist    bpred.TaggedHistory
	idxBits uint
	tagMask []uint32 // per-component "12 + rank" tag masks (Table 2)
	tags    [][]uint32
}

func newVTAGETags(cfg VTAGEConfig) vtageTags {
	t := vtageTags{
		hist:    bpred.NewTaggedHistory(bpred.GeometricLengths(cfg.MinHist, cfg.MaxHist, cfg.NumTagged), cfg.TaggedBits, cfg.TagWidth),
		idxBits: uint(cfg.TaggedBits),
	}
	for i := 0; i < cfg.NumTagged; i++ {
		width := cfg.TagWidth + i + 1 // "12 + rank" per Table 2
		if width > 30 {
			width = 30
		}
		t.tagMask = append(t.tagMask, uint32(1<<width)-1)
		t.tags = append(t.tags, make([]uint32, 1<<cfg.TaggedBits))
	}
	return t
}

// probe hashes pc with each component's history, longest first, into
// l's indices and tags until a component's tag matches, and returns
// that component, or -1. The components below a match are not hashed:
// neither the provider nor allocation reads them.
func (t *vtageTags) probe(pc uint64, l *vtageLookup) int {
	idxMask := uint32(1<<t.idxBits) - 1
	pcIdx := uint32(pc>>2) ^ uint32(pc>>(2+t.idxBits))
	pcTag := uint32(pc>>2) ^ uint32(pc>>17)
	for i := len(t.tags) - 1; i >= 0; i-- {
		fIdx, fTag, fTag2 := t.hist.Folds(i)
		l.indices[i] = (pcIdx ^ fIdx ^ uint32(i*0x1F)) & idxMask
		l.tags[i] = (pcTag ^ fTag ^ fTag2<<1) & t.tagMask[i]
		if t.tags[i][l.indices[i]] == l.tags[i] {
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
	comp    int // provider component (-1 = base)
	value   uint64
	indices []uint32 // NumTagged of each
	tags    []uint32
}

func newVTAGELookup(cfg VTAGEConfig) vtageLookup {
	return vtageLookup{indices: make([]uint32, cfg.NumTagged), tags: make([]uint32, cfg.NumTagged)}
}

// NewVTAGE builds a VTAGE predictor from cfg.
func NewVTAGE(cfg VTAGEConfig) *VTAGE {
	v := &VTAGE{
		cfg:    cfg,
		base:   make([]vtageBaseEntry, 1<<cfg.BaseBits),
		fpc:    NewFPC(cfg.FPC),
		tagged: newVTAGETags(cfg),
		look:   newVTAGELookup(cfg),
	}
	for i := 0; i < cfg.NumTagged; i++ {
		v.comp = append(v.comp, make([]vtageEntry, 1<<cfg.TaggedBits))
	}
	return v
}

// Name implements Predictor.
func (v *VTAGE) Name() string { return "VTAGE" }

// StorageBits implements Predictor, following Table 2's accounting
// (base entries carry value+conf; tagged entries add 12+rank tags and
// a useful bit).
func (v *VTAGE) StorageBits() int {
	bits := len(v.base) * (64 + 3)
	for r := range v.comp {
		bits += len(v.comp[r]) * (64 + 3 + 1 + v.cfg.TagWidth + (r + 1))
	}
	return bits
}

// PushBranch implements Predictor: VTAGE consumes the global
// conditional-branch direction history.
func (v *VTAGE) PushBranch(taken bool) { v.tagged.hist.Push(taken) }

// Lookup implements Predictor.
func (v *VTAGE) Lookup(pc uint64) Prediction {
	l := &v.look
	if i := v.tagged.probe(pc, l); i >= 0 {
		e := &v.comp[i][l.indices[i]]
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
		e := &v.comp[l.comp][l.indices[l.comp]]
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
	for i := start; i < len(l.indices); i++ {
		e := &v.comp[i][l.indices[i]]
		if e.u == 0 {
			*e = vtageEntry{value: actual}
			v.tagged.tags[i][l.indices[i]] = l.tags[i]
			return
		}
	}
	for i := start; i < len(l.indices); i++ {
		v.comp[i][l.indices[i]].u = 0
	}
}

func (v *VTAGE) clearUseful() {
	for _, c := range v.comp {
		for i := range c {
			c[i].u = 0
		}
	}
}
