package vpred

// Prediction is the outcome of one value predictor lookup. It is 16
// bytes, returned in registers: which table entry provided it is the
// predictor's own business until the paired Train.
type Prediction struct {
	// Value is the predicted 64-bit result.
	Value uint64
	// Use reports whether the confidence counter is saturated: only
	// then does the pipeline write the prediction to the PRF and allow
	// consumers (and Early/Late Execution) to rely on it.
	Use bool
	// Hit reports whether any table entry matched at all (coverage
	// diagnostics; a prediction can hit without being confident).
	Hit bool
}

// Predictor is a value predictor operating in program order: the
// pipeline calls Lookup at fetch and Train at commit with the
// architectural result. Trace-driven simulation collapses the two into
// immediate succession per µ-op; predictors that need in-flight state
// (stride families) therefore see idealized update timing, while VTAGE
// does not need the previous value at all — the property the paper
// highlights as its key implementability advantage.
//
// Lookup and Train are strictly paired per µ-op: every Lookup(pc) is
// followed by exactly one Train(pc, actual) before the next Lookup. A
// predictor keeps whatever it needs to know about its provider entry
// (component, row, allocation candidates) from the one call to the
// other, so nothing but the prediction itself crosses the interface.
type Predictor interface {
	// Lookup predicts the result of the VP-eligible µ-op at pc.
	Lookup(pc uint64) Prediction
	// Train observes the architectural result of the µ-op the last
	// Lookup predicted; pc must be that Lookup's.
	Train(pc uint64, actual uint64)
	// Name identifies the predictor in reports.
	Name() string
	// StorageBits estimates the table budget in bits (Table 2).
	StorageBits() int
}

// Meter wraps a Predictor with coverage/accuracy accounting.
type Meter struct {
	P Predictor

	Eligible  uint64 // VP-eligible µ-ops seen
	Used      uint64 // predictions used (confident)
	UsedRight uint64 // used and value correct
	UsedWrong uint64 // used and value incorrect (would squash)
	HitRight  uint64 // table hit predicted correctly (coverage bound)
}

// Observe performs Lookup+Train for one µ-op and returns the
// prediction together with use/correctness accounting.
func (m *Meter) Observe(pc uint64, actual uint64) (Prediction, bool) {
	p := m.P.Lookup(pc)
	m.Eligible++
	correct := p.Value == actual
	if p.Hit && correct {
		m.HitRight++
	}
	if p.Use {
		m.Used++
		if correct {
			m.UsedRight++
		} else {
			m.UsedWrong++
		}
	}
	m.P.Train(pc, actual)
	return p, correct
}

// Coverage is the fraction of eligible µ-ops with a used prediction.
func (m *Meter) Coverage() float64 {
	if m.Eligible == 0 {
		return 0
	}
	return float64(m.Used) / float64(m.Eligible)
}

// Accuracy is the fraction of used predictions that were correct.
func (m *Meter) Accuracy() float64 {
	if m.Used == 0 {
		return 1
	}
	return float64(m.UsedRight) / float64(m.Used)
}

// MispredictPerKilo returns used-but-wrong predictions per 1000
// eligible µ-ops — the squash-rate driver.
func (m *Meter) MispredictPerKilo() float64 {
	if m.Eligible == 0 {
		return 0
	}
	return 1000 * float64(m.UsedWrong) / float64(m.Eligible)
}

// tableIndex hashes a µ-op PC into a 2^bits table. The paper indexes
// with the instruction PC shifted left by two XORed with the µ-op
// number inside the instruction; our IR has one µ-op per instruction,
// so the µ-op number is zero and we fold the upper PC bits instead.
func tableIndex(pc uint64, bits int) uint32 {
	h := (pc >> 2) ^ (pc >> (2 + uint(bits)))
	return uint32(h) & ((1 << bits) - 1)
}

// fullTag derives the "full tag" the 2D-stride predictor of Table 2
// stores (51 bits in the paper; we keep 32 which never aliases in our
// address space).
func fullTag(pc uint64) uint32 { return uint32(pc>>2) ^ uint32(pc>>34) }
