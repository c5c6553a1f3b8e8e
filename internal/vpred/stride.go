package vpred

// LastValue is the classic LVP table (Lipasti et al.): predicts that a
// static µ-op produces the same value as its previous dynamic
// instance. Included as the simplest computational baseline and as the
// building block VTAGE uses for its base component.
type LastValue struct {
	bits    int
	entries []lvEntry
	fpc     *FPC
}

type lvEntry struct {
	tag  uint32
	last uint64
	conf uint8
}

// NewLastValue builds an LVP with 2^bits entries.
func NewLastValue(bits int, fpc FPCVector) *LastValue {
	return &LastValue{bits: bits, entries: make([]lvEntry, 1<<bits), fpc: NewFPC(fpc)}
}

// Name implements Predictor.
func (l *LastValue) Name() string { return "LastValue" }

// StorageBits implements Predictor: tag(32) + value(64) + conf(3).
func (l *LastValue) StorageBits() int { return len(l.entries) * (32 + 64 + 3) }

// Lookup implements Predictor.
func (l *LastValue) Lookup(pc uint64) Prediction {
	e := &l.entries[tableIndex(pc, l.bits)]
	if e.tag != fullTag(pc) {
		return Prediction{}
	}
	return Prediction{Value: e.last, Use: Confident(e.conf), Hit: true}
}

// Train implements Predictor. The single-table predictors of this file
// carry nothing from Lookup: their row is a function of pc alone.
func (l *LastValue) Train(pc uint64, actual uint64) {
	e := &l.entries[tableIndex(pc, l.bits)]
	if e.tag != fullTag(pc) {
		// Cold or aliased: claim the entry.
		*e = lvEntry{tag: fullTag(pc), last: actual}
		return
	}
	l.fpc.Bump(&e.conf, e.last == actual)
	e.last = actual
}

// Stride is the single-stride predictor (Mendelson & Gabbay): predicts
// last + stride where stride is the most recent observed delta.
type Stride struct {
	bits    int
	entries []strideEntry
	fpc     *FPC
}

type strideEntry struct {
	tag    uint32
	last   uint64
	stride int64
	conf   uint8
}

// NewStride builds a stride predictor with 2^bits entries.
func NewStride(bits int, fpc FPCVector) *Stride {
	return &Stride{bits: bits, entries: make([]strideEntry, 1<<bits), fpc: NewFPC(fpc)}
}

// Name implements Predictor.
func (s *Stride) Name() string { return "Stride" }

// StorageBits implements Predictor: tag(32)+last(64)+stride(64)+conf(3).
func (s *Stride) StorageBits() int { return len(s.entries) * (32 + 64 + 64 + 3) }

// Lookup implements Predictor.
func (s *Stride) Lookup(pc uint64) Prediction {
	e := &s.entries[tableIndex(pc, s.bits)]
	if e.tag != fullTag(pc) {
		return Prediction{}
	}
	return Prediction{Value: e.last + uint64(e.stride), Use: Confident(e.conf), Hit: true}
}

// Train implements Predictor.
func (s *Stride) Train(pc uint64, actual uint64) {
	e := &s.entries[tableIndex(pc, s.bits)]
	if e.tag != fullTag(pc) {
		*e = strideEntry{tag: fullTag(pc), last: actual}
		return
	}
	predicted := e.last + uint64(e.stride)
	s.fpc.Bump(&e.conf, predicted == actual)
	e.stride = int64(actual - e.last)
	e.last = actual
}

// TwoDeltaStride is the 2-Delta Stride predictor (Eickemeyer &
// Vassiliadis), the computational half of the paper's hybrid (Table
// 2: 8192 entries, full tags, 251.9KB). It keeps two strides: s1 is
// the most recent delta, s2 — the predicting stride — is updated only
// when the same delta is observed twice in a row, filtering the
// one-off breaks that defeat the plain stride predictor.
type TwoDeltaStride struct {
	bits    int
	entries []twoDeltaEntry
	fpc     *FPC
}

type twoDeltaEntry struct {
	tag  uint32
	last uint64
	s1   int64
	s2   int64
	conf uint8
}

// NewTwoDeltaStride builds the Table 2 predictor with 2^bits entries.
func NewTwoDeltaStride(bits int, fpc FPCVector) *TwoDeltaStride {
	return &TwoDeltaStride{bits: bits, entries: make([]twoDeltaEntry, 1<<bits), fpc: NewFPC(fpc)}
}

// Name implements Predictor.
func (s *TwoDeltaStride) Name() string { return "2D-Stride" }

// StorageBits implements Predictor. Matching Table 2's accounting
// (full 51-bit tag + last + two strides + confidence).
func (s *TwoDeltaStride) StorageBits() int { return len(s.entries) * (51 + 64 + 64 + 64 + 3) }

// Lookup implements Predictor.
func (s *TwoDeltaStride) Lookup(pc uint64) Prediction {
	e := &s.entries[tableIndex(pc, s.bits)]
	if e.tag != fullTag(pc) {
		return Prediction{}
	}
	return Prediction{Value: e.last + uint64(e.s2), Use: Confident(e.conf), Hit: true}
}

// Train implements Predictor.
func (s *TwoDeltaStride) Train(pc uint64, actual uint64) {
	e := &s.entries[tableIndex(pc, s.bits)]
	if e.tag != fullTag(pc) {
		*e = twoDeltaEntry{tag: fullTag(pc), last: actual}
		return
	}
	predicted := e.last + uint64(e.s2)
	s.fpc.Bump(&e.conf, predicted == actual)
	delta := int64(actual - e.last)
	if delta == e.s1 {
		e.s2 = delta
	}
	e.s1 = delta
	e.last = actual
}
