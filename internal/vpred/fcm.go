package vpred

// FCM is an order-k Finite Context Method predictor (Sazeides &
// Smith): a first-level table records, per static µ-op, a hash of the
// last k produced values; a second-level value table maps that hash to
// the value that followed it last time. Included as the classic
// context-based comparison point for VTAGE in the ablation benches
// (the paper's related-work discussion contrasts the two families).
type FCM struct {
	order   int
	vhtBits int
	vptBits int
	vht     []fcmHistEntry // level 1: per-PC value history hash
	vpt     []fcmValEntry  // level 2: context -> next value
	fpc     *FPC

	// look is the level-2 row and tag of the last Lookup that hit level
	// 1, kept for the paired Train (which sees the same level-1 entry,
	// so hits it exactly when the Lookup did).
	look struct{ vIx, tag uint32 }
}

// fcmMaxOrder bounds the per-entry value history window.
const fcmMaxOrder = 8

type fcmHistEntry struct {
	tag  uint32
	vals [fcmMaxOrder]uint64 // circular window of the last k values
	head uint8
}

type fcmValEntry struct {
	tag   uint32
	value uint64
	conf  uint8
}

// NewFCM builds an order-k FCM with 2^vhtBits history entries and
// 2^vptBits value entries. order is capped at 8.
func NewFCM(order, vhtBits, vptBits int, fpc FPCVector) *FCM {
	if order < 1 {
		order = 1
	}
	if order > fcmMaxOrder {
		order = fcmMaxOrder
	}
	return &FCM{
		order:   order,
		vhtBits: vhtBits,
		vptBits: vptBits,
		vht:     make([]fcmHistEntry, 1<<vhtBits),
		vpt:     make([]fcmValEntry, 1<<vptBits),
		fpc:     NewFPC(fpc),
	}
}

// Name implements Predictor.
func (f *FCM) Name() string { return "FCM" }

// StorageBits implements Predictor.
func (f *FCM) StorageBits() int {
	return len(f.vht)*(32+64) + len(f.vpt)*(32+64+3)
}

// contextHash folds exactly the last `order` values of the entry (plus
// the µ-op PC) into a level-2 hash. Only the true order-k window
// participates, so periodic value sequences map to a finite, repeating
// set of contexts — the property that lets FCM learn them.
func (f *FCM) contextHash(pc uint64, he *fcmHistEntry) uint64 {
	h := pc >> 2
	for i := 0; i < f.order; i++ {
		v := he.vals[(int(he.head)-i+fcmMaxOrder)%fcmMaxOrder]
		h = (h<<7 | h>>57) ^ v
		h *= 0x9E3779B97F4A7C15
	}
	return h
}

func (f *FCM) vptIndex(hash uint64) uint32 {
	return uint32(hash^(hash>>uint(f.vptBits))) & ((1 << f.vptBits) - 1)
}

func (f *FCM) push(he *fcmHistEntry, v uint64) {
	he.head = uint8((int(he.head) + 1) % fcmMaxOrder)
	he.vals[he.head] = v
}

// Lookup implements Predictor.
func (f *FCM) Lookup(pc uint64) Prediction {
	he := &f.vht[tableIndex(pc, f.vhtBits)]
	if he.tag != fullTag(pc) {
		return Prediction{}
	}
	hash := f.contextHash(pc, he)
	f.look.vIx = f.vptIndex(hash)
	f.look.tag = uint32(hash>>40) & 0xFFFF
	if ve := &f.vpt[f.look.vIx]; ve.tag == f.look.tag {
		return Prediction{Value: ve.value, Use: Confident(ve.conf), Hit: true}
	}
	return Prediction{}
}

// Train implements Predictor.
func (f *FCM) Train(pc uint64, actual uint64) {
	he := &f.vht[tableIndex(pc, f.vhtBits)]
	if he.tag != fullTag(pc) {
		*he = fcmHistEntry{tag: fullTag(pc)}
		f.push(he, actual)
		return
	}
	ve := &f.vpt[f.look.vIx]
	if ve.tag == f.look.tag {
		f.fpc.Bump(&ve.conf, ve.value == actual)
		if ve.value != actual && ve.conf == 0 {
			ve.value = actual
		}
	} else {
		*ve = fcmValEntry{tag: f.look.tag, value: actual}
	}
	f.push(he, actual)
}
