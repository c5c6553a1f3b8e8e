package core

import (
	"eole/internal/isa"
	"eole/internal/prog"
)

// ---------------------------------------------------------------- fetch

// verdict is what the predictors said about one dynamic µ-op, packed
// in the byte a prediction track (track.go) stores per µ-op.
type verdict uint8

const (
	brMispred   verdict = 1 << iota // front end followed the wrong path
	brVHC                           // very-high-confidence branch
	condMiss                        // conditional branch, direction wrong (bpred.Counts' CondMispredict)
	predUsed                        // value prediction written to PRF
	predCorrect                     // value and derived flags match
)

// firstFetchPredict runs the branch and value predictors for a µ-op
// the first time the core takes it and returns their verdict: the only
// code that computes one, for a live source and a track's builder alike.
// Replayed µ-ops keep theirs (each trains each predictor exactly once).
func (l *liveSource) firstFetchPredict(u *prog.MicroOp) verdict {
	if u.IsBranch() {
		var target uint64
		if u.Taken {
			target = u.NextPC
		}
		cls := u.Op.Class()
		// OnBranch also pushes the branch into the global history that
		// TAGE and the value predictor share.
		r := l.bp.OnBranch(cls, u.PC, target, u.PC+4, u.Taken)
		return flag(r.Mispredicted, brMispred) | flag(r.VeryHighConf, brVHC) |
			flag(cls == isa.ClassBranch && r.PredTaken != u.Taken, condMiss)
	}
	if l.vp == nil || !u.VPEligible() {
		return 0
	}
	pr := l.vp.Lookup(u.PC)
	l.vp.Train(u.PC, u.Value)
	// A used prediction is architecturally correct only if the value
	// matches and, for flag-writing µ-ops, the flags derived from the
	// predicted value match the true flags (§4.2).
	return flag(pr.Use, predUsed) |
		flag(pr.Value == u.Value && (!u.Op.WritesFlags() || isa.FlagsMatch(pr.Value, u.Flags)), predCorrect)
}

func flag(b bool, f verdict) verdict {
	if b {
		return f
	}
	return 0
}

// nextUop returns the next µ-op to fetch, in its ring slot, or nil
// when the stream has run dry: a squashed µ-op first — the replay
// region starts right at fetchSeq, so refetching one only takes it out
// of the count — then the stream's next pair. The slot is written
// whole, part by part: the fetch record, the verdict, and the pipeline
// state (TestUopPartsAllWritten).
func (c *Core) nextUop() *uop {
	if c.replayLen > 0 {
		c.replayLen--
		c.stats.Replayed++
		return c.at(c.fetchSeq())
	}
	b := &c.batch
	if b.pos >= b.n && !c.refill() {
		return nil
	}
	u := c.slotFor(b.seq + uint64(b.pos))
	u.verdict = c.take(&u.FetchOp)
	resetForReplay(u) // never fetched: the state a squash returns to
	return u
}

// slotFor returns the ring slot of seq, the µ-op first fetch pulls from
// the batch. With nothing in flight, seqs restart wherever the stream
// is now (Skip and Warm advance it behind an empty pipeline).
func (c *Core) slotFor(seq uint64) *uop {
	if c.count+c.fqLen == 0 {
		c.headSeq = seq
	}
	return c.at(seq)
}

// branchResolveCycle returns the cycle from which the mispredicted
// branch blocking fetch counts as resolved: 0 once it has committed,
// never while that cycle is not known yet.
func (c *Core) branchResolveCycle(seq uint64) uint64 {
	if c.count == 0 || seq < c.headSeq {
		return 0 // committed (covers LE/VT-resolved branches)
	}
	if !c.inWindow(seq) {
		return never // still in the front end
	}
	u := c.at(seq)
	switch u.Class {
	case isa.ClassJump, isa.ClassCall:
		// Direct unconditional targets resolve right after rename.
		return u.renameCycle + 1
	default:
		if u.lateBranch || !u.issued {
			return never // resolves at commit / not executing yet
		}
		return u.readyCycle
	}
}

// fetch brings up to FetchWidth µ-ops into the front-end queue. It
// returns false only when the trace is exhausted and nothing is left
// to replay.
func (c *Core) fetch() bool {
	if c.fetchBlocked {
		if c.now < c.branchResolveCycle(c.fetchBlockedBy) {
			return true
		}
		c.fetchBlocked = false
		if c.now+1 > c.fetchStallUntil {
			c.fetchStallUntil = c.now + 1 // redirect bubble
		}
	}
	if c.now < c.fetchStallUntil {
		return true
	}

	taken := 0
	fetched := 0
	firstPC := uint64(0)
	for fetched < c.cfg.FetchWidth && c.fqLen < c.cfg.FetchQueueSize {
		var u *uop
		if c.pendingValid {
			u = c.at(c.fetchSeq())
			c.pendingValid = false
		} else if u = c.nextUop(); u == nil {
			return fetched > 0 || c.fqLen > 0 || c.count > 0
		}
		if u.Class.IsBranch() && u.Taken {
			if taken >= c.cfg.MaxTakenPerFetch {
				c.pendingValid = true // it waits in its slot
				break
			}
			taken++
		}
		u.fetched = true
		u.fetchCycle = c.now
		u.availCycle = never
		u.readyCycle = never
		if fetched == 0 {
			firstPC = u.PC
		}
		c.fqLen++
		c.trace(u, StageFetch)
		c.stats.Fetched++
		fetched++
		if u.verdict&brMispred != 0 {
			c.fetchBlocked = true
			c.fetchBlockedBy = u.Seq
			break
		}
	}
	if fetched > 0 {
		// Instruction cache: a miss on the fetch line stalls the front
		// end until the fill returns.
		if done := c.mem.Fetch(firstPC, c.now); done > c.now+1 {
			c.fetchStallUntil = done
		}
	}
	return true
}

// ---------------------------------------------------------------- rename

// eeStageFor returns the EE ALU stage (1-based) at which the µ-op's
// operands are all available, or 0 if it cannot be early-executed.
// Operand sources, per §3.2: immediates from Decode, predictions of
// same-group producers (held in the EE block), and the local bypass of
// results early-executed in the previous cycle. Values residing in the
// PRF are never read by the EE block.
func (c *Core) eeStageFor(u *uop) int {
	if !c.cfg.EarlyExecution || !u.Class.SingleCycleALU() {
		return 0
	}
	stage := 1
	for _, src := range [2]isa.Reg{u.Src1, u.Src2} {
		if !src.Valid() {
			continue
		}
		r := c.rat[src]
		if !r.has {
			return 0 // architectural value lives in the PRF only
		}
		if !c.inWindow(r.seq) {
			return 0
		}
		p := c.at(r.seq)
		switch {
		case p.renameCycle == c.now && p.verdict&predUsed != 0:
			// Same rename group, predicted: prediction is in the EE
			// block (stage 1).
		case p.renameCycle == c.now && p.earlyDone:
			// Same group, early-executed at stage s: needs stage s+1.
			if int(p.eeStage)+1 > stage {
				stage = int(p.eeStage) + 1
			}
		case p.renameCycle+1 == c.now && (p.earlyDone || p.verdict&predUsed != 0):
			// Previous cycle's group: the local bypass network carries
			// its EE results, and its predictions are being written to
			// the PRF at dispatch this very cycle (write-port data is
			// bypassable). Stage 1 either way.
		default:
			return 0
		}
	}
	if stage > c.cfg.EEDepth {
		return 0
	}
	return stage
}

// rename renames, early-executes and dispatches up to RenameWidth
// µ-ops from the front-end queue into the window.
func (c *Core) rename() {
	slot := 0
	for slot < c.cfg.RenameWidth && c.fqLen > 0 {
		// The front-end queue's head, in the slot it has had since fetch
		// and keeps until commit: renaming it moves the boundary, not it.
		u := c.at(c.headSeq + uint64(c.count))
		if u.fetchCycle+uint64(c.cfg.FetchToRenameLag) > c.now {
			break
		}
		if c.count >= c.cfg.ROBSize {
			c.stats.ROBFullStalls++
			break
		}
		cls := u.Class
		if cls == isa.ClassLoad && c.lqCount >= c.cfg.LQSize {
			break
		}
		if cls == isa.ClassStore && c.sqCount >= c.cfg.SQSize {
			break
		}

		// Tentative EOLE classification (decides IQ need).
		eeStage := c.eeStageFor(u)
		early := eeStage > 0
		vhc := u.verdict&brVHC != 0
		late := !early && c.cfg.LateExecution && u.verdict&predUsed != 0 && cls.SingleCycleALU()
		lateBr := c.cfg.LEBranches && cls.IsCondBranch() && vhc
		if c.cfg.LEReturns && vhc && (cls == isa.ClassReturn || cls == isa.ClassJumpReg) {
			lateBr = true
		}
		needsIQ := !early && !late && !lateBr
		if needsIQ && c.iqCount >= c.cfg.IQSize {
			c.stats.IQFullStalls++
			break
		}

		// Physical register allocation, round-robin across banks.
		bank := -1
		if u.Dst.Valid() {
			bank = c.prf.BankFor(slot)
			if !c.prf.TryAlloc(u.Dst.IsFP(), bank) {
				c.stats.RenameBankStalls++
				break
			}
		}

		// Commit to renaming this µ-op. It is outside the window until
		// count advances below, so nothing observes it early.
		u.renamed = true
		u.renameCycle = c.now
		u.eeStage = uint8(eeStage)
		u.earlyDone = early
		u.late = late
		u.lateBranch = lateBr
		u.allocBank = int8(bank)
		u.allocFP = u.Dst.Valid() && u.Dst.IsFP()

		// Source dependences from the RAT. A µ-op bound for the issue
		// queue can issue once the dispatch latency has passed and its
		// operands have arrived: a producer that knows when its value
		// arrives says so now, one that does not takes the µ-op on its
		// chain and says so when it issues (wake).
		if needsIQ {
			u.readyAt = c.now + 2
		}
		for k, src := range [2]isa.Reg{u.Src1, u.Src2} {
			if !src.Valid() {
				continue
			}
			r := c.rat[src]
			if !r.has {
				u.srcBank[k] = c.commitB[src].bank
				continue
			}
			u.srcBank[k] = r.bank
			if !needsIQ {
				continue
			}
			if p := c.at(r.seq); p.availCycle == never {
				u.nextWait[k] = p.waiters
				p.waiters = (uint32(u.Seq&uint64(len(c.ring)-1))<<1 | uint32(k)) + 1
				u.pending++
			} else if p.availCycle > u.readyAt {
				u.readyAt = p.availCycle
			}
		}

		// Previous mapping of the destination (freed when u commits).
		if u.Dst.Valid() {
			if r := c.rat[u.Dst]; r.has && c.inWindow(r.seq) {
				p := c.at(r.seq)
				u.prevBank = p.allocBank
				u.prevHas = p.allocBank >= 0
				u.prevFP = p.allocFP
			} else if cb := c.commitB[u.Dst]; cb.has {
				u.prevBank = int8(cb.bank)
				u.prevHas = true
				u.prevFP = u.Dst.IsFP()
			} else {
				u.prevBank = -1
			}
			c.rat[u.Dst] = ratEntry{seq: u.Seq, has: true, bank: uint8(bank)}
		} else {
			u.prevBank = -1
		}

		// Value availability for consumers.
		u.availCycle = never
		u.readyCycle = never
		if u.verdict&predUsed != 0 {
			u.availCycle = c.now + 1 // written to the PRF at dispatch
		}
		if early {
			u.availCycle = c.now
			u.readyCycle = c.now
		}

		// Queue occupancy and memory dependence prediction.
		switch cls {
		case isa.ClassLoad:
			c.lqCount++
			if seq, dep := c.ss.OnLoadDispatch(u.PC); dep {
				u.waitSeq, u.waitHas = seq, true
			}
		case isa.ClassStore:
			c.sq[(c.sqHead+c.sqCount)&(len(c.sq)-1)] = sqEntry{seq: u.Seq, word: u.Addr >> 3}
			c.sqCount++
			c.ss.OnStoreDispatch(u.PC, u.Seq)
		}
		if needsIQ {
			u.inIQ = true
			c.iqCount++
			if u.pending == 0 {
				// Every arrival is known: onto the select list, at its
				// young end since rename is in order. Never grows: the
				// IQ-full check above keeps len(iq) below its capacity.
				c.iq = append(c.iq, iqEntry{seq: u.Seq, wakeAt: u.readyAt})
				if u.readyAt < c.issueWake {
					c.issueWake = u.readyAt
				}
			}
		}

		// Publish into the window.
		c.fqLen--
		c.count++
		slot++
		c.trace(u, StageRename)
		if u.earlyDone {
			c.trace(u, StageEarly)
		}
	}
	if slot == c.cfg.RenameWidth {
		c.stats.RenameSaturated++
	}
}

// ---------------------------------------------------------------- issue

// issue performs OoO Select & Wakeup: oldest-first selection of up to
// IssueWidth µ-ops whose operands have arrived, subject to functional
// unit and memory port availability; each µ-op issued tells the µ-ops
// waiting for its value when it arrives.
func (c *Core) issue() {
	if c.now < c.issueWake {
		return // nothing on the select list has its operands yet
	}
	issued, selectable := 0, 0
	aluUsed, mulUsed, fpUsed, fpmUsed, memUsed := 0, 0, 0, 0, 0
	wake := uint64(never)
	woken := c.woken[:0]
	// Oldest-first over the select list. Entries that stay are moved
	// down over the ones that issued (keep counts them), so the list is
	// dense and age-ordered again when the loop ends.
	iq := c.iq
	keep, li := 0, 0
	for ; li < len(iq) && issued < c.cfg.IssueWidth; li++ {
		e := iq[li]
		if keep != li {
			iq[keep] = e
		}
		keep++ // taken back below if e issues
		if c.now < e.wakeAt {
			if e.wakeAt < wake {
				wake = e.wakeAt
			}
			continue
		}
		selectable++
		u := c.at(e.seq)

		cls := u.Class
		var lat uint64
		switch cls {
		case isa.ClassALU, isa.ClassBranch, isa.ClassJump, isa.ClassCall,
			isa.ClassReturn, isa.ClassJumpReg:
			if aluUsed >= c.cfg.NumALU {
				continue
			}
		case isa.ClassMul:
			if mulUsed >= c.cfg.NumMulDiv {
				continue
			}
		case isa.ClassDiv:
			if !reserveUnpipelined(c.divBusyUntil, c.now, uint64(cls.Latency())) {
				continue
			}
		case isa.ClassFP:
			if fpUsed >= c.cfg.NumFP {
				continue
			}
		case isa.ClassFPMul:
			if fpmUsed >= c.cfg.NumFPMulDiv {
				continue
			}
		case isa.ClassFPDiv:
			if !reserveUnpipelined(c.fpDivBusyUntil, c.now, uint64(cls.Latency())) {
				continue
			}
		case isa.ClassLoad, isa.ClassStore:
			if memUsed >= c.cfg.NumMemPorts {
				continue
			}
		}

		switch cls {
		case isa.ClassLoad:
			// Predicted memory dependence: wait for the store.
			if u.waitHas && c.inWindow(u.waitSeq) {
				w := c.at(u.waitSeq)
				if w.Class == isa.ClassStore && !w.storeExecuted && w.Seq < u.Seq {
					continue
				}
			}
			lat = c.issueLoad(u) - c.now
			memUsed++
		case isa.ClassStore:
			u.storeExecuted = true
			lat = 1
			memUsed++
			c.ss.OnStoreComplete(u.PC, u.Seq)
		default:
			lat = uint64(cls.Latency())
			switch cls {
			case isa.ClassMul:
				mulUsed++
			case isa.ClassFP:
				fpUsed++
			case isa.ClassFPMul:
				fpmUsed++
			case isa.ClassDiv, isa.ClassFPDiv:
				// busy time already reserved
			default:
				aluUsed++
			}
		}

		u.issued = true
		u.inIQ = false
		c.iqCount--
		keep--
		u.readyCycle = c.now + lat
		if u.Seq-c.traceFrom < c.traceN {
			c.traceEvent(u, StageIssue, c.now)
			c.traceEvent(u, StageReady, u.readyCycle)
		}
		if u.readyCycle < u.availCycle {
			// Not value-predicted, so until now nobody knew when its
			// value arrives: tell the µ-ops that have been waiting to.
			u.availCycle = u.readyCycle
			woken = c.wake(u, woken)
		}
		issued++
	}
	// A selectable µ-op left behind — refused a unit or held by a
	// memory-order wait — must be reconsidered next cycle. So must what
	// was not looked at because the issue width ran out: the rest of the
	// list stays as it is.
	if selectable > issued {
		wake = c.now + 1
	}
	if li < len(iq) {
		wake = c.now + 1
		keep += copy(iq[keep:], iq[li:])
	}
	iq = iq[:keep]
	// The woken join the list by age, now that it is compacted. Every
	// latency is at least one cycle, so none of them could have issued
	// this cycle: deferring them loses nothing.
	for _, w := range woken {
		i := len(iq)
		iq = append(iq, w)
		for ; i > 0 && iq[i-1].seq > w.seq; i-- {
			iq[i] = iq[i-1]
		}
		iq[i] = w
		if w.wakeAt < wake {
			wake = w.wakeAt
		}
	}
	c.iq = iq
	c.issueWake = wake
	if issued == c.cfg.IssueWidth {
		c.stats.IssueSaturated++
	}
}

// wake tells the µ-ops on p's chain that its value arrives at
// p.availCycle, which has just become known, and appends those that
// waited for nothing else to woken. A chain is walked once, when its
// producer issues, and links only unissued window µ-ops younger than
// the producer, so every link it holds is live.
func (c *Core) wake(p *uop, woken []iqEntry) []iqEntry {
	for l := p.waiters; l != 0; {
		u := &c.ring[(l-1)>>1]
		l = u.nextWait[(l-1)&1]
		if p.availCycle > u.readyAt {
			u.readyAt = p.availCycle
		}
		if u.pending--; u.pending == 0 {
			woken = append(woken, iqEntry{seq: u.Seq, wakeAt: u.readyAt})
		}
	}
	p.waiters = 0
	return woken
}

// issueLoad resolves memory ordering for a load and returns its
// data-ready cycle.
func (c *Core) issueLoad(u *uop) (ready uint64) {
	// The youngest older store to the same word, from the store queue:
	// it holds every store in the window, in age order.
	word, mask := u.Addr>>3, len(c.sq)-1
	for i := c.sqHead + c.sqCount - 1; i >= c.sqHead; i-- {
		e := &c.sq[i&mask]
		if e.seq > u.Seq || e.word != word {
			continue
		}
		s := c.at(e.seq)
		if s.storeExecuted {
			// Store-to-load forwarding from the SQ.
			return c.now + 2
		}
		// The store's address is unknown in hardware and Store Sets
		// did not predict the dependence: the load issues and reads
		// stale data — a memory-order violation detected at commit.
		u.violation = true
		c.ss.OnViolation(u.PC, s.PC)
		return c.now + 2
	}
	return c.mem.Load(u.PC, u.Addr, c.now+1)
}

// reserveUnpipelined claims one of the unpipelined units if any is
// free at cycle now.
func reserveUnpipelined(busyUntil []uint64, now, lat uint64) bool {
	for i := range busyUntil {
		if busyUntil[i] <= now {
			busyUntil[i] = now + lat
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------- commit

// commit retires up to CommitWidth µ-ops in order through the LE/VT
// stage: late execution of deferred ALU µ-ops and VHC branches,
// prediction validation and predictor-training port accounting, and
// squash on value mispredictions or memory-order violations.
func (c *Core) commit() {
	c.levt.Reset()
	leSlots := 0
	for n := 0; n < c.cfg.CommitWidth && c.count > 0; n++ {
		u := c.at(c.headSeq)

		// Completion condition.
		switch {
		case u.earlyDone:
			// done at rename
		case u.late || u.lateBranch:
			if c.cfg.LEWidth > 0 && leSlots >= c.cfg.LEWidth {
				return
			}
		case u.issued && u.readyCycle <= c.now:
			// OoO execution finished
		default:
			c.stats.CommitStopHead++
			return
		}

		// LE/VT read-port accounting: late-executed µ-ops (ALU and
		// branches) read their operands; every VP-eligible µ-op reads
		// its result for validation (predicted only) and training
		// (all).
		var banks [3]int
		nb := 0
		if u.late || u.lateBranch {
			for k := 0; k < 2; k++ {
				if srcValid(u, k) {
					banks[nb] = int(u.srcBank[k])
					nb++
				}
			}
		}
		if c.cfg.ValuePrediction && u.vpEligible() && u.allocBank >= 0 {
			banks[nb] = int(u.allocBank)
			nb++
		}
		if nb > 0 && !c.levt.TryReserve(banks[:nb]...) {
			c.stats.LEVTPortStalls++
			// A head-of-ROB µ-op whose reads exceed even a whole
			// cycle's bank budget performs them over several cycles:
			// after stalling one cycle per extra read it commits.
			if n == 0 {
				c.headPortWait++
				if c.headPortWait >= nb {
					c.headPortWait = 0
					goto portsGranted
				}
			}
			return
		}
	portsGranted:
		if u.late || u.lateBranch {
			leSlots++
			c.trace(u, StageLate)
		}
		c.headPortWait = 0
		c.trace(u, StageCommit)

		// Retirement actions.
		switch u.Class {
		case isa.ClassStore:
			c.mem.Store(u.PC, u.Addr, c.now)
			c.sqHead = (c.sqHead + 1) & (len(c.sq) - 1)
			c.sqCount--
		case isa.ClassLoad:
			c.lqCount--
		}
		if u.prevHas {
			c.prf.Free(u.prevFP, int(u.prevBank))
		}
		if u.Dst.Valid() && u.allocBank >= 0 {
			c.commitB[u.Dst].bank = uint8(u.allocBank)
			c.commitB[u.Dst].has = true
			if r := c.rat[u.Dst]; r.has && r.seq == u.Seq {
				c.rat[u.Dst] = ratEntry{}
			}
		}
		c.accountCommit(u)

		seq := u.Seq
		predSquash := u.verdict&predUsed != 0 && u.verdict&predCorrect == 0
		violSquash := u.violation
		// Advance past u.
		c.count--
		c.headSeq = seq + 1

		if predSquash || violSquash {
			if predSquash {
				c.stats.VPSquashes++
			} else {
				c.stats.MemViolations++
			}
			c.squashPipeline(c.now + 2)
			return
		}
	}
}

func srcValid(u *uop, k int) bool {
	if k == 0 {
		return u.Src1.Valid()
	}
	return u.Src2.Valid()
}

// accountCommit updates per-class and EOLE statistics.
func (c *Core) accountCommit(u *uop) {
	c.stats.Committed++
	switch u.Class {
	case isa.ClassALU:
		c.stats.CommittedALU++
	case isa.ClassLoad, isa.ClassStore:
		c.stats.CommittedMem++
	case isa.ClassFP, isa.ClassFPMul, isa.ClassFPDiv:
		c.stats.CommittedFP++
	case isa.ClassBranch, isa.ClassJump, isa.ClassCall, isa.ClassReturn, isa.ClassJumpReg:
		c.stats.CommittedBranch++
	default:
		c.stats.CommittedOther++
	}
	if u.earlyDone {
		c.stats.EarlyExecuted++
		if u.eeStage == 2 {
			c.stats.EEStage2++
		}
	}
	if u.late {
		c.stats.LateALU++
	}
	if u.lateBranch {
		c.stats.LateBranches++
	}
	if u.vpEligible() {
		c.stats.VPEligible++
		if u.verdict&predUsed != 0 {
			c.stats.VPUsed++
		}
	}
	if u.verdict&brMispred != 0 {
		c.stats.BranchMispredicts++
	}
}
