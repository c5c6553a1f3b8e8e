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

type vtageEntry struct {
	tag   uint32
	value uint64
	conf  uint8
	u     uint8 // 1-bit useful
}

// VTAGE is the context-based value predictor of Perais & Seznec
// (HPCA 2014). Like the ITTAGE indirect branch predictor it selects
// predictions with the global branch history, so — unlike stride
// predictors — it does not need the previous value of the instruction
// to predict the current one and needs no in-flight speculative state.
// vtageFolds keeps a tagged component's three folded-history registers
// adjacent: each lookup and history push touches all three together.
type vtageFolds struct {
	idx bpred.FoldedHistory
	tag bpred.FoldedHistory
	tg2 bpred.FoldedHistory
}

type VTAGE struct {
	cfg  VTAGEConfig
	base []vtageBaseEntry
	comp [][]vtageEntry
	fpc  *FPC

	hist    *bpred.GlobalHistory
	folds   []vtageFolds
	lens    []int
	tagMask []uint32 // per-component "12 + rank" tag masks (Table 2)

	look   vtageLookup
	trains uint64
}

// vtageLookup is what a (D-)VTAGE Lookup leaves behind for the paired
// Train: the provider component, the value it predicted, and every
// tagged component's row and tag under the history of the lookup (the
// provider's own, and the allocation candidates on a misprediction).
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
		cfg:  cfg,
		base: make([]vtageBaseEntry, 1<<cfg.BaseBits),
		fpc:  NewFPC(cfg.FPC),
		hist: bpred.NewGlobalHistory(cfg.MaxHist + 16),
		lens: bpred.GeometricLengths(cfg.MinHist, cfg.MaxHist, cfg.NumTagged),
		look: newVTAGELookup(cfg),
	}
	v.folds = make([]vtageFolds, cfg.NumTagged)
	v.tagMask = make([]uint32, cfg.NumTagged)
	for i := 0; i < cfg.NumTagged; i++ {
		v.comp = append(v.comp, make([]vtageEntry, 1<<cfg.TaggedBits))
		v.folds[i] = vtageFolds{
			idx: *bpred.NewFoldedHistory(v.lens[i], cfg.TaggedBits),
			tag: *bpred.NewFoldedHistory(v.lens[i], cfg.TagWidth),
			tg2: *bpred.NewFoldedHistory(v.lens[i], cfg.TagWidth-1),
		}
		width := cfg.TagWidth + i + 1 // "12 + rank" per Table 2
		if width > 30 {
			width = 30
		}
		v.tagMask[i] = uint32(1<<width) - 1
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
func (v *VTAGE) PushBranch(taken bool) {
	v.hist.Push(taken)
	in := uint32(v.hist.Bit(0))
	for i := range v.folds {
		f := &v.folds[i]
		out := uint32(v.hist.Bit(v.lens[i])) // shared window length
		f.idx.UpdateBits(in, out)
		f.tag.UpdateBits(in, out)
		f.tg2.UpdateBits(in, out)
	}
}

// Lookup implements Predictor.
func (v *VTAGE) Lookup(pc uint64) Prediction {
	l := &v.look
	// Per-component index and tag hashes of pc and the folded history,
	// the pc-only terms hoisted out of the loop.
	idxMask := uint32(1<<v.cfg.TaggedBits) - 1
	pcIdx := uint32(pc>>2) ^ uint32(pc>>(2+uint(v.cfg.TaggedBits)))
	pcTag := uint32(pc>>2) ^ uint32(pc>>17)
	for i := range l.indices {
		f := &v.folds[i]
		l.indices[i] = (pcIdx ^ f.idx.Value() ^ uint32(i*0x1F)) & idxMask
		l.tags[i] = (pcTag ^ f.tag.Value() ^ (f.tg2.Value() << 1)) & v.tagMask[i]
	}
	for i := len(l.indices) - 1; i >= 0; i-- {
		e := &v.comp[i][l.indices[i]]
		if e.tag == l.tags[i] {
			l.comp, l.value = i, e.value
			return Prediction{Value: e.value, Use: Confident(e.conf), Hit: true}
		}
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
			*e = vtageEntry{tag: l.tags[i], value: actual}
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

// HistoryLengths returns the geometric branch-history lengths in use.
func (v *VTAGE) HistoryLengths() []int {
	out := make([]int, len(v.lens))
	copy(out, v.lens)
	return out
}
