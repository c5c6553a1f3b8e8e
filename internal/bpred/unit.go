package bpred

import "eole/internal/isa"

// Result describes the front-end's handling of one dynamic branch.
type Result struct {
	// PredTaken is the predicted direction (conditional branches).
	PredTaken bool
	// Mispredicted is true when direction or target was wrong and the
	// fetch stream must be redirected when the branch resolves.
	Mispredicted bool
	// VeryHighConf marks conditional branches whose TAGE provider
	// counter is saturated: EOLE may resolve them in the Late
	// Execution stage (§3.3).
	VeryHighConf bool
	// Conf is the raw confidence class of the direction prediction.
	Conf Confidence
}

// Unit bundles TAGE + BTB + RAS and the global history behind the
// single entry point the pipeline uses. It is trace-driven: prediction
// and training happen together, in program order, which idealizes
// update delay exactly as typical trace-driven simulators do.
//
// Beyond the paper's evaluated design, the unit also estimates
// confidence for returns and register-indirect jumps (per-PC
// probabilistic counters over RAS/BTB correctness), enabling the §7
// future-work extension of late-executing those branch kinds too.
type Unit struct {
	Tage *TAGE
	Btb  *BTB
	Ras  *RAS
	hist *History

	// indirConf holds per-PC probabilistic confidence counters for
	// returns and indirect jumps (shared table; PCs rarely collide).
	indirConf [1024]uint8
	rand      uint64
}

// NewUnit builds the Table 1 front-end predictor stack.
func NewUnit() *Unit {
	h := NewHistory()
	return &Unit{
		Tage: NewTAGE(DefaultTageConfig(), h),
		Btb:  NewBTB(4096, 2),
		Ras:  NewRAS(32),
		hist: h,
		rand: 0x6C62272E07BB0142,
	}
}

// History returns the global history OnBranch pushes every branch
// into: a value predictor built on it registers its windows before the
// first branch. Unconditional control flow pushes a taken bit (path
// information), as common TAGE setups do.
func (u *Unit) History() *History { return u.hist }

func (u *Unit) indirSlot(pc uint64) *uint8 {
	return &u.indirConf[(pc>>2)%uint64(len(u.indirConf))]
}

// trainIndirConf applies the probabilistic confidence policy (as for
// conditional branches: slow promotion, reset on a miss).
func (u *Unit) trainIndirConf(pc uint64, correct bool) {
	slot := u.indirSlot(pc)
	if !correct {
		*slot = 0
		return
	}
	if *slot < confSaturated {
		u.rand ^= u.rand << 13
		u.rand ^= u.rand >> 7
		u.rand ^= u.rand << 17
		if u.rand&15 == 0 {
			*slot++
		}
	}
}

// OnBranch processes one dynamic branch: it predicts, compares against
// the actual outcome, trains, and maintains history/BTB/RAS.
//
//   - pc: branch address
//   - class: branch class (conditional, jump, call, return, indirect)
//   - taken: actual direction (true for unconditional)
//   - target: actual next PC when taken
//   - fallthrough_: PC of the next sequential instruction
func (u *Unit) OnBranch(class isa.Class, pc, target, fallthrough_ uint64, taken bool) Result {
	var res Result
	switch class {
	case isa.ClassBranch:
		p := u.Tage.Predict(pc)
		res.PredTaken = p.Taken
		res.Conf = p.Conf
		res.VeryHighConf = p.Conf == ConfHigh
		res.Mispredicted = p.Taken != taken
		// Direction right but target unknown: the BTB must supply it
		// for taken branches fetched this cycle.
		if !res.Mispredicted && taken {
			if t, hit := u.Btb.Lookup(pc); !hit || t != target {
				res.Mispredicted = true
			}
		}
		u.Tage.Update(taken, &p)
		u.hist.Push(taken)
		if taken {
			u.Btb.Insert(pc, target)
		}

	case isa.ClassJump:
		// Direct unconditional: target known after first encounter.
		res.PredTaken = true
		if t, hit := u.Btb.Lookup(pc); !hit || t != target {
			res.Mispredicted = true
		}
		u.Btb.Insert(pc, target)
		u.hist.Push(true)

	case isa.ClassCall:
		res.PredTaken = true
		if t, hit := u.Btb.Lookup(pc); !hit || t != target {
			res.Mispredicted = true
		}
		u.Btb.Insert(pc, target)
		u.Ras.Push(fallthrough_)
		u.hist.Push(true)

	case isa.ClassReturn:
		res.PredTaken = true
		res.VeryHighConf = *u.indirSlot(pc) >= confSaturated
		res.Conf = confidenceClass(*u.indirSlot(pc))
		if t, ok := u.Ras.Pop(); !ok || t != target {
			res.Mispredicted = true
		}
		u.trainIndirConf(pc, !res.Mispredicted)
		u.hist.Push(true)

	case isa.ClassJumpReg:
		res.PredTaken = true
		res.VeryHighConf = *u.indirSlot(pc) >= confSaturated
		res.Conf = confidenceClass(*u.indirSlot(pc))
		// Last-target indirect prediction through the BTB.
		if t, hit := u.Btb.Lookup(pc); !hit || t != target {
			res.Mispredicted = true
		}
		u.trainIndirConf(pc, !res.Mispredicted)
		u.Btb.Insert(pc, target)
		u.hist.Push(true)
	}
	return res
}

// Counts tallies the branches a front end has handled: what the
// report's branch rates are computed from. The unit keeps none; a
// caller counts each Result it wants counted.
type Counts struct {
	CondBranches   uint64
	CondMispredict uint64
	HighConfCond   uint64
	HighConfWrong  uint64
	IndirectSeen   uint64
	IndirectWrong  uint64
	ReturnsSeen    uint64
	ReturnsWrong   uint64
}

// Account adds one branch. dirWrong is a conditional branch's direction
// miss, r.PredTaken != taken for its OnBranch Result r (a taken one is
// also Mispredicted on a BTB miss).
func (c *Counts) Account(class isa.Class, mispredicted, dirWrong, veryHighConf bool) {
	switch class {
	case isa.ClassBranch:
		c.CondBranches++
		if veryHighConf {
			c.HighConfCond++
		}
		if dirWrong {
			c.CondMispredict++
			if veryHighConf {
				c.HighConfWrong++
			}
		}
	case isa.ClassReturn:
		c.ReturnsSeen++
		if mispredicted {
			c.ReturnsWrong++
		}
	case isa.ClassJumpReg:
		c.IndirectSeen++
		if mispredicted {
			c.IndirectWrong++
		}
	}
}

// CondMispredictRate returns mispredictions per conditional branch.
func (c *Counts) CondMispredictRate() float64 {
	if c.CondBranches == 0 {
		return 0
	}
	return float64(c.CondMispredict) / float64(c.CondBranches)
}

// HighConfMispredictRate returns the misprediction rate within the
// very-high-confidence class; the paper relies on this being below
// ~0.5% to make LE branch resolution safe.
func (c *Counts) HighConfMispredictRate() float64 {
	if c.HighConfCond == 0 {
		return 0
	}
	return float64(c.HighConfWrong) / float64(c.HighConfCond)
}

// HighConfFraction returns the fraction of conditional branches
// classified very-high-confidence (the LE branch offload pool).
func (c *Counts) HighConfFraction() float64 {
	if c.CondBranches == 0 {
		return 0
	}
	return float64(c.HighConfCond) / float64(c.CondBranches)
}
