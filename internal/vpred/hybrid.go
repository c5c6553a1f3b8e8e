package vpred

import "eole/internal/bpred"

// Hybrid is the VTAGE-2DStride hybrid the paper evaluates everywhere
// (Table 2): VTAGE covers context-predictable values, the 2-delta
// stride predictor covers computational sequences VTAGE cannot learn
// (long arithmetic progressions). Arbitration: when a tagged VTAGE
// component provides a confident prediction it wins (context evidence
// is specific); otherwise a confident stride prediction is used; a
// confident VTAGE *base* prediction is the last resort. Both halves
// train on every eligible µ-op.
//
// Lookup/Train calls are strictly paired per µ-op (the Predictor
// contract), so training both halves is just training each: they hold
// their own lookups.
type Hybrid struct {
	vtage  *VTAGE
	stride *TwoDeltaStride

	// ChoseVTAGE / ChoseStride count arbitration outcomes among used
	// predictions, for reporting.
	ChoseVTAGE  uint64
	ChoseStride uint64
}

// NewHybrid builds the Table 2 hybrid: a default VTAGE on the global
// branch history h plus an 8192-entry 2-delta stride predictor sharing
// the FPC vector.
func NewHybrid(h *bpred.History) *Hybrid {
	return &Hybrid{
		vtage:  NewVTAGE(DefaultVTAGEConfig(), h),
		stride: NewTwoDeltaStride(13, DefaultFPCVector()),
	}
}

// Name implements Predictor.
func (h *Hybrid) Name() string { return "VTAGE-2DStride" }

// StorageBits implements Predictor.
func (h *Hybrid) StorageBits() int { return h.vtage.StorageBits() + h.stride.StorageBits() }

// Lookup implements Predictor. VTAGE's tagless base always hits, so
// whichever half answers, the prediction reports Hit as the union of
// the two would.
func (h *Hybrid) Lookup(pc uint64) Prediction {
	pv, ps := h.vtage.Lookup(pc), h.stride.Lookup(pc)
	switch {
	case pv.Use && h.vtage.look.comp >= 0:
		h.ChoseVTAGE++
		return pv
	case ps.Use:
		h.ChoseStride++
		return ps
	case pv.Use:
		h.ChoseVTAGE++
		return pv
	case ps.Hit:
		return ps
	default:
		return pv
	}
}

// Train implements Predictor.
func (h *Hybrid) Train(pc uint64, actual uint64) {
	h.vtage.Train(pc, actual)
	h.stride.Train(pc, actual)
}

// NewByName constructs any predictor in the family by its report name.
// Recognized: "LastValue", "Stride", "2D-Stride", "FCM", "VTAGE",
// "D-VTAGE", "VTAGE-2DStride". The VTAGE family is indexed by h, the
// front end's global branch history; the others ignore it.
func NewByName(name string, h *bpred.History) (Predictor, bool) {
	switch name {
	case "LastValue":
		return NewLastValue(13, DefaultFPCVector()), true
	case "Stride":
		return NewStride(13, DefaultFPCVector()), true
	case "2D-Stride":
		return NewTwoDeltaStride(13, DefaultFPCVector()), true
	case "FCM":
		return NewFCM(4, 13, 14, DefaultFPCVector()), true
	case "VTAGE":
		return NewVTAGE(DefaultVTAGEConfig(), h), true
	case "D-VTAGE":
		return NewDVTAGE(DefaultVTAGEConfig(), 16, h), true
	case "VTAGE-2DStride":
		return NewHybrid(h), true
	}
	return nil, false
}

// FamilyNames lists the constructible predictor names in report order.
func FamilyNames() []string {
	return []string{"LastValue", "Stride", "2D-Stride", "FCM", "VTAGE", "D-VTAGE", "VTAGE-2DStride"}
}
