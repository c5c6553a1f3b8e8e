package bpred

// TageConfig sizes the TAGE predictor. The defaults reproduce the
// paper's Table 1 predictor: "TAGE 1+12 components, 15K-entry total,
// 20 cycles min. mis. penalty".
type TageConfig struct {
	// BaseBits is log2 of the base bimodal table entries.
	BaseBits int
	// NumTagged is the number of tagged components (12 in the paper),
	// each of 1<<IndexBits entries with TagBits-wide partial tags.
	NumTagged int
	// MinHist and MaxHist bound the geometric history lengths.
	MinHist, MaxHist int
	// UseAltBits sizes the USE_ALT_ON_NA counter.
	UseAltBits int
	// ResetPeriod is the number of updates between useful-bit halvings.
	ResetPeriod int
}

// DefaultTageConfig returns the Table 1 configuration: a 4K-entry base
// plus 12 × 1K-entry tagged components ≈ 16K entries (the paper says
// "15K-entry total").
func DefaultTageConfig() TageConfig {
	return TageConfig{
		BaseBits:    12,
		NumTagged:   12,
		MinHist:     4,
		MaxHist:     640,
		UseAltBits:  4,
		ResetPeriod: 1 << 18,
	}
}

// Confidence classifies a prediction per Seznec's storage-free
// confidence estimation (HPCA 2011): the provider counter value alone
// separates low/medium/high confidence streams.
type Confidence uint8

const (
	// ConfLow: weak provider counter; mispredicts often.
	ConfLow Confidence = iota
	// ConfMed: intermediate counter values.
	ConfMed
	// ConfHigh: saturated provider counter. The paper offloads exactly
	// these ("predictions whose confidence counter is saturated") to
	// Late Execution; their misprediction rate is generally < 0.5%.
	ConfHigh
)

func (c Confidence) String() string {
	switch c {
	case ConfLow:
		return "low"
	case ConfMed:
		return "med"
	default:
		return "high"
	}
}

// tageEntry is a tagged component's payload; its tag lives apart, in
// the tag array, so a probe reads payload only on a hit.
type tageEntry struct {
	ctr  int8  // 3-bit signed counter: -4..3
	u    uint8 // 2-bit useful counter
	conf uint8 // 3-bit probabilistic confidence counter
}

// confSaturated is the confidence counter ceiling; reaching it
// classifies the entry's predictions as very high confidence.
const confSaturated = 7

// TagePrediction is a Predict's verdict plus what the paired Update
// needs of it. Like the value predictors' Lookup/Train, Predict and
// Update are strictly paired: every component's row and tag under the
// history of the prediction stay in the predictor until Update.
type TagePrediction struct {
	Taken      bool
	Conf       Confidence
	provider   int // component index; -1 = base
	altTaken   bool
	providerIx uint32 // the provider's row in TAGE.comp
	baseIx     uint32
	usedAlt    bool
	newAlloc   bool
}

// TAGE is the conditional branch direction predictor.
type TAGE struct {
	cfg      TageConfig
	base     []uint8     // 2-bit bimodal counters
	baseConf []uint8     // 3-bit probabilistic confidence for base entries
	rand     uint64      // deterministic PRNG for probabilistic updates
	comp     []tageEntry // component i's row ix at i<<IndexBits | ix
	tags     []uint16    // beside comp
	hist     *History
	win      []int // each component's window in hist

	useAltOnNA int
	updates    uint64

	// Each component's row in comp and tag under the last Predict's
	// history (the provider's, and those above it: the allocation
	// candidates).
	scratchIdx []uint32
	scratchTag []uint32
}

// NewTAGE builds a TAGE predictor from cfg, indexed by h, whose
// windows it registers.
func NewTAGE(cfg TageConfig, h *History) *TAGE {
	t := &TAGE{
		cfg:      cfg,
		base:     make([]uint8, 1<<cfg.BaseBits),
		baseConf: make([]uint8, 1<<cfg.BaseBits),
		rand:     0x2545F4914F6CDD1D,
		comp:     make([]tageEntry, cfg.NumTagged<<IndexBits),
		tags:     make([]uint16, cfg.NumTagged<<IndexBits),
		hist:     h,
		win:      make([]int, cfg.NumTagged),
	}
	for i, n := range GeometricLengths(cfg.MinHist, cfg.MaxHist, cfg.NumTagged) {
		t.win[i] = h.Window(n)
	}
	t.scratchIdx = make([]uint32, cfg.NumTagged)
	t.scratchTag = make([]uint32, cfg.NumTagged)
	// Weakly-taken initial bimodal state.
	for i := range t.base {
		t.base[i] = 2
	}
	return t
}

// StorageBits returns the approximate predictor storage budget in bits
// (for Table 2-style reporting).
func (t *TAGE) StorageBits() int {
	return len(t.base)*(2+3) + len(t.comp)*(3+TagBits+2+3)
}

func (t *TAGE) baseIndex(pc uint64) uint32 {
	return uint32(pc>>2) & (uint32(1<<t.cfg.BaseBits) - 1)
}

// Predict returns the direction prediction and confidence for pc.
func (t *TAGE) Predict(pc uint64) TagePrediction {
	p := TagePrediction{provider: -1}
	p.baseIx = t.baseIndex(pc)
	baseTaken := t.base[p.baseIx] >= 2

	alt := -1
	pcIdx := uint32(pc) ^ uint32(pc>>IndexBits)
	// Longest history first, hashing each component as the walk reaches
	// it: nothing below the alternate is ever read.
	for i := t.cfg.NumTagged - 1; i >= 0; i-- {
		fIdx, fTag, fTag2 := t.hist.Folds(t.win[i])
		ix := uint32(i)<<IndexBits | (pcIdx^fIdx^uint32(i)<<1)&(1<<IndexBits-1)
		tag := (uint32(pc) ^ fTag ^ fTag2<<1) & (1<<TagBits - 1)
		t.scratchIdx[i], t.scratchTag[i] = ix, tag
		if t.tags[ix] == uint16(tag) {
			if p.provider < 0 {
				p.provider = i
				p.providerIx = ix
			} else {
				alt = i
				break
			}
		}
	}

	if p.provider < 0 {
		p.Taken = baseTaken
		p.altTaken = baseTaken
		p.Conf = confidenceClass(t.baseConf[p.baseIx])
		return p
	}

	e := &t.comp[p.providerIx]
	provTaken := e.ctr >= 0
	if alt >= 0 {
		p.altTaken = t.comp[t.scratchIdx[alt]].ctr >= 0
	} else {
		p.altTaken = baseTaken
	}
	// "Newly allocated" entries (weak counter, never useful) may be
	// overridden by the alternate prediction (USE_ALT_ON_NA).
	p.newAlloc = (e.ctr == 0 || e.ctr == -1) && e.u == 0
	if p.newAlloc && t.useAltOnNA >= 8 {
		p.Taken = p.altTaken
		p.usedAlt = true
	} else {
		p.Taken = provTaken
	}
	p.Conf = confidenceClass(e.conf)
	if p.usedAlt {
		p.Conf = ConfLow
	}
	return p
}

// confidenceClass maps a probabilistic confidence counter to a class.
// The counter is incremented on a correct prediction only with
// probability 1/16 and reset on a misprediction, so reaching
// saturation requires on the order of a hundred consecutive correct
// predictions — which is what keeps the very-high-confidence
// misprediction rate below the ~0.5% the paper's Late Execution of
// branches relies on (Seznec, HPCA 2011).
func confidenceClass(conf uint8) Confidence {
	switch {
	case conf >= confSaturated:
		return ConfHigh
	case conf >= 4:
		return ConfMed
	default:
		return ConfLow
	}
}

// nextRand steps the deterministic xorshift PRNG used for
// probabilistic confidence updates.
func (t *TAGE) nextRand() uint64 {
	t.rand ^= t.rand << 13
	t.rand ^= t.rand >> 7
	t.rand ^= t.rand << 17
	return t.rand
}

// trainConf applies the probabilistic confidence update.
func (t *TAGE) trainConf(conf *uint8, correct bool) {
	if !correct {
		*conf = 0
		return
	}
	if *conf < confSaturated && t.nextRand()&15 == 0 {
		*conf++
	}
}

// Update trains the predictor with the actual outcome of the branch
// the last Predict returned p for. It must be called exactly once per
// Predict, before the next one and before the branch is pushed into the
// history.
func (t *TAGE) Update(taken bool, p *TagePrediction) {
	t.updates++
	if t.updates%uint64(t.cfg.ResetPeriod) == 0 {
		t.halveUseful()
	}

	correct := p.Taken == taken

	// USE_ALT_ON_NA training.
	if p.provider >= 0 && p.newAlloc {
		e := &t.comp[p.providerIx]
		provTaken := e.ctr >= 0
		if provTaken != p.altTaken {
			if p.altTaken == taken {
				if t.useAltOnNA < 15 {
					t.useAltOnNA++
				}
			} else if t.useAltOnNA > 0 {
				t.useAltOnNA--
			}
		}
	}

	if p.provider >= 0 {
		e := &t.comp[p.providerIx]
		provTaken := e.ctr >= 0
		t.trainConf(&e.conf, provTaken == taken)
		// Useful bit: provider correct where alternate was wrong.
		if provTaken != p.altTaken {
			if provTaken == taken {
				if e.u < 3 {
					e.u++
				}
			} else if e.u > 0 {
				e.u--
			}
		}
		e.ctr = updateCtr(e.ctr, taken, -4, 3)
		// Also train base when the provider entry is still weak, which
		// accelerates convergence (standard TAGE optimization).
		if p.newAlloc {
			t.base[p.baseIx] = updateBimodal(t.base[p.baseIx], taken)
		}
	} else {
		baseTaken := t.base[p.baseIx] >= 2
		t.trainConf(&t.baseConf[p.baseIx], baseTaken == taken)
		t.base[p.baseIx] = updateBimodal(t.base[p.baseIx], taken)
	}

	// Allocate on misprediction in a longer-history component.
	if !correct && p.provider < t.cfg.NumTagged-1 {
		t.allocate(taken, p.provider)
	}
}

// allocate claims up to one entry with u==0 in a component longer than
// the provider, decaying useful bits when none is free.
func (t *TAGE) allocate(taken bool, provider int) {
	start := provider + 1
	for i := start; i < t.cfg.NumTagged; i++ {
		ix := t.scratchIdx[i]
		e := &t.comp[ix]
		if e.u == 0 {
			t.tags[ix] = uint16(t.scratchTag[i])
			e.conf = 0
			if taken {
				e.ctr = 0
			} else {
				e.ctr = -1
			}
			return
		}
	}
	for i := start; i < t.cfg.NumTagged; i++ {
		e := &t.comp[t.scratchIdx[i]]
		if e.u > 0 {
			e.u--
		}
	}
}

func (t *TAGE) halveUseful() {
	for i := range t.comp {
		t.comp[i].u >>= 1
	}
}

func updateCtr(ctr int8, taken bool, min, max int8) int8 {
	if taken {
		if ctr < max {
			return ctr + 1
		}
	} else if ctr > min {
		return ctr - 1
	}
	return ctr
}

func updateBimodal(ctr uint8, taken bool) uint8 {
	if taken {
		if ctr < 3 {
			return ctr + 1
		}
	} else if ctr > 0 {
		return ctr - 1
	}
	return ctr
}
