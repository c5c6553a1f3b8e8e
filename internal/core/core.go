// Package core implements the paper's primary contribution: a
// cycle-level model of the {Early | Out-of-Order | Late} Execution
// microarchitecture (EOLE) on top of a value-predicting superscalar.
//
// The model is trace-driven: the core reads one stream of (fetch
// record, verdict) pairs for the correct path — a live source predicts
// each µ-op of a prog.Source as the core takes it, a track source reads
// a trace and its prediction track (track.go) — and charges cycles
// against the Table 1 machine: an 8-wide front end with TAGE +
// VTAGE-2DStride prediction, a 6/4-issue
// out-of-order engine with a unified IQ (entries released at issue),
// 192-entry ROB, 48/48 LQ/SQ with Store Sets, banked PRF, full cache
// hierarchy and DDR3 memory, and the EOLE blocks: an Early Execution
// ALU stage beside Rename and a Late Execution/Validation/Training
// (LE/VT) pre-commit stage.
//
// Deliberate trace-driven idealizations (ARCHITECTURE.md, "Pipeline
// walkthrough"): wrong-path µ-ops are not executed (mispredicted
// branches stall the fetch stream until resolution instead), and
// predictors train in fetch order rather than commit order, which the
// prediction tracks (track.go) rely on. Squash recovery for value
// mispredictions and memory-order violations is modelled exactly:
// younger µ-ops are thrown away, re-fetched and re-executed.
package core

import (
	"context"
	"fmt"
	"math"
	"reflect"

	"eole/internal/bpred"
	"eole/internal/cache"
	"eole/internal/config"
	"eole/internal/isa"
	"eole/internal/prog"
	"eole/internal/regfile"
	"eole/internal/storeset"
	"eole/internal/trace"
	"eole/internal/vpred"
)

const never = math.MaxUint64

// uop is one in-flight dynamic µ-op: the fetch-time template — what
// the source and the predictors said about it, written once at first
// fetch — and the pipeline state a squash resets.
type uop struct {
	// What the pipeline reads of the µ-op's source record. The rest of
	// a prog.MicroOp — result value, flags, store data, next PC, static
	// index — only the predictors read, at first fetch, from the batch
	// entry (firstFetchPredict), so the ring slot does not hold it.
	prog.FetchOp

	// The predictors' verdicts, taken at first fetch so replays do not
	// retrain (predictors observe each dynamic µ-op exactly once).
	verdict verdict

	pipeState
}

// vpEligible is prog.MicroOp.VPEligible on the slot.
func (u *uop) vpEligible() bool { return u.Dst.Valid() && !u.Class.IsBranch() }

// pipeState is a µ-op's dynamic state: everything a squash throws away
// (see resetForReplay). A field added here is reset with the rest.
type pipeState struct {
	fetchCycle  uint64
	renameCycle uint64
	readyCycle  uint64 // OoO execution completion
	availCycle  uint64 // earliest cycle consumers can source the value

	waitSeq uint64 // Store Sets predicted a dependence on it (waitHas)

	// Wakeup (see Core.iq). As a producer, a µ-op whose availCycle is
	// not known yet heads a chain of the issue-queue µ-ops waiting for
	// its value: waiters is the first link, a link is (ring slot<<1 |
	// operand)+1 of the waiting µ-op, 0 ends the chain. As a consumer,
	// nextWait[k] continues the chain its operand k is linked on,
	// pending counts the chains it is on, and readyAt is the latest
	// arrival among what it no longer waits for: the dispatch latency
	// and the operands whose producers have issued.
	readyAt  uint64
	waiters  uint32
	nextWait [2]uint32
	pending  uint8

	fetched       bool // passed through fetch into the front-end queue
	renamed       bool
	inIQ          bool
	issued        bool
	earlyDone     bool  // executed in the EE block
	eeStage       uint8 // EE ALU stage used (1 or 2)
	late          bool  // single-cycle ALU deferred to LE/VT
	lateBranch    bool  // VHC branch resolved at LE/VT
	violation     bool  // load that issued past a conflicting store
	storeExecuted bool  // store address computed (SQ entry resolved)
	waitHas       bool

	srcBank [2]uint8

	allocBank int8 // dest phys register bank (-1 = none)
	allocFP   bool
	prevBank  int8 // bank of the previous mapping of Dst (freed at commit)
	prevHas   bool
	prevFP    bool
}

// iqEntry is one µ-op on the issue queue's select list (see Core.iq).
type iqEntry struct {
	seq    uint64
	wakeAt uint64 // the cycle its last operand arrives: selectable from then on
}

// sqEntry is one store on the store queue (see Core.sq).
type sqEntry struct {
	seq  uint64
	word uint64 // Addr>>3: what a load's address is matched against
}

type ratEntry struct {
	seq  uint64
	has  bool
	bank uint8
}

// Stats aggregates everything the experiments report.
type Stats struct {
	Cycles    uint64
	Committed uint64
	Fetched   uint64
	Replayed  uint64

	CommittedALU    uint64
	CommittedMem    uint64
	CommittedBranch uint64
	CommittedFP     uint64
	CommittedOther  uint64

	EarlyExecuted uint64 // committed µ-ops executed in the EE block
	LateALU       uint64 // committed µ-ops executed in LE/VT
	LateBranches  uint64 // committed VHC branches resolved in LE/VT
	EEStage2      uint64 // of EarlyExecuted, needed the second ALU stage

	VPEligible uint64 // committed VP-eligible µ-ops
	VPUsed     uint64 // with a confident prediction written to the PRF
	VPSquashes uint64 // commit-time value-misprediction squashes

	BranchMispredicts uint64
	MemViolations     uint64
	LEVTPortStalls    uint64 // commit-group cutoffs due to read ports
	RenameBankStalls  uint64 // rename stalls on an empty PRF bank
	IQFullStalls      uint64
	ROBFullStalls     uint64

	// Pipeline diagnostics.
	CommitStopHead  uint64 // commit cut short: head not complete
	IssueSaturated  uint64 // cycles the full issue width was used
	RenameSaturated uint64 // cycles the full rename width was used
}

// Add accumulates o's counters into s, field by field. It reflects
// over the struct so a counter added to Stats can never be silently
// dropped from an aggregation (the sampler sums its measurement
// windows through this); a non-uint64 field would panic the first
// aggregating test instead of vanishing.
func (s *Stats) Add(o *Stats) {
	sv := reflect.ValueOf(s).Elem()
	ov := reflect.ValueOf(o).Elem()
	for i := 0; i < sv.NumField(); i++ {
		sv.Field(i).SetUint(sv.Field(i).Uint() + ov.Field(i).Uint())
	}
}

// IPC returns committed µ-ops per cycle.
func (s *Stats) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Committed) / float64(s.Cycles)
}

// EEFraction is Figure 2's metric: early-executed per committed.
func (s *Stats) EEFraction() float64 {
	if s.Committed == 0 {
		return 0
	}
	return float64(s.EarlyExecuted) / float64(s.Committed)
}

// LEFraction is Figure 4's metric: late-executed (ALU + VHC branches)
// per committed; disjoint from EEFraction by construction.
func (s *Stats) LEFraction() float64 {
	if s.Committed == 0 {
		return 0
	}
	return float64(s.LateALU+s.LateBranches) / float64(s.Committed)
}

// OffloadFraction is the paper's headline 10%-60% metric: committed
// µ-ops that never entered the OoO engine.
func (s *Stats) OffloadFraction() float64 { return s.EEFraction() + s.LEFraction() }

// VPCoverage is used predictions per eligible µ-op.
func (s *Stats) VPCoverage() float64 {
	if s.VPEligible == 0 {
		return 0
	}
	return float64(s.VPUsed) / float64(s.VPEligible)
}

// Core is one simulated machine instance.
type Core struct {
	cfg config.Config

	src    source
	batch  batch
	warmOp prog.FetchOp // what Warm takes each µ-op into
	mem    *cache.Hierarchy
	ss     *storeset.StoreSets
	prf    *regfile.PRF
	levt   *regfile.LEVTArbiter

	// The in-flight ring: every µ-op between first fetch and commit
	// lives in ring[seq&mask] and never moves. Seqs are contiguous, so
	// the pipeline's queues are consecutive seq ranges, described by
	// counters alone. From headSeq, the oldest in-flight µ-op, upward:
	//
	//	count        the window: renamed, uncommitted (== ROB occupancy)
	//	fqLen        the front-end queue: fetched, waiting for rename
	//	pendingValid one µ-op pulled but deferred by the taken-branch limit
	//	replayLen    squashed µ-ops awaiting refetch
	//
	// Fetch writes a µ-op into its slot, rename and commit advance a
	// counter, and a squash resets the squashed entries' pipeState where
	// they lie and hands their ranges to replayLen. The source is only
	// read while replayLen is zero, so at most ROBSize + FetchQueueSize
	// + the pending µ-op are in flight: the capacity New gives the ring.
	ring         []uop
	headSeq      uint64
	count        int
	fqLen        int
	pendingValid bool
	replayLen    int

	rat     [isa.NumArchRegs]ratEntry
	commitB [isa.NumArchRegs]struct {
		bank uint8
		has  bool
	}

	iqCount int
	lqCount int
	sqCount int

	// sq is the store queue: the window's sqCount stores, oldest first
	// from sq[sqHead], with their address words, in a ring of
	// nextPow2(SQSize) entries. Rename appends a store, its commit
	// advances sqHead, a squash or flush empties it. A load searches it
	// instead of the window (issueLoad).
	sq     []sqEntry
	sqHead int

	// iq is the issue queue's select list: of the iqCount µ-ops waiting
	// to issue, those whose operands' arrival cycles are all known,
	// oldest first, in a backing array allocated once in New (len(iq) <=
	// iqCount <= IQSize). The others wait on their producers' chains
	// (pipeState.waiters) and cost the select loop nothing. Rename
	// appends a µ-op with no unissued producer; issuing a producer wakes
	// its chain, and a µ-op whose last producer that was is collected in
	// woken (capacity IQSize, so neither ever grows) and inserted by age
	// once the select loop has compacted the list. wakeAt is exact — the
	// µ-op's final readyAt — so selecting reads no operand state.
	iq    []iqEntry
	woken []iqEntry

	// issueWake is the first cycle the select loop can find anything to
	// issue: now+1 while a selectable µ-op was left behind, else the
	// least wakeAt on the list, never with the list empty. issue returns
	// at once before it (rename lowers it when it appends).
	issueWake uint64

	// FU state.
	divBusyUntil   []uint64
	fpDivBusyUntil []uint64

	// Fetch control.
	fetchStallUntil uint64
	fetchBlockedBy  uint64 // seq of unresolved mispredicted branch
	fetchBlocked    bool

	// headPortWait counts cycles the window head has stalled on LE/VT
	// read ports; a head whose reads exceed a bank's whole per-cycle
	// budget spreads them over multiple cycles instead of deadlocking.
	headPortWait int

	tracer            Tracer
	traceFrom, traceN uint64 // the tracer's window; n is 0 with none

	now   uint64
	stats Stats
	bp    bpred.Counts // every branch taken from the stream
}

// New builds a core for cfg, pulling µ-ops from src and predicting
// live. It panics on an invalid configuration (construction is static
// in experiments).
func New(cfg config.Config, src prog.Source) *Core {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return newCore(cfg, newLive(keyOf(cfg), src))
}

// newCore builds a core for cfg reading src.
func newCore(cfg config.Config, src source) *Core {
	return &Core{
		cfg:            cfg,
		src:            src,
		mem:            cache.NewTable1Hierarchy(),
		ss:             storeset.New(storeset.DefaultConfig()),
		prf:            regfile.New(cfg.PRF),
		levt:           regfile.NewLEVTArbiter(cfg.PRF),
		ring:           make([]uop, nextPow2(cfg.ROBSize+cfg.FetchQueueSize+1)),
		sq:             make([]sqEntry, nextPow2(cfg.SQSize)),
		iq:             make([]iqEntry, 0, cfg.IQSize),
		woken:          make([]iqEntry, 0, cfg.IQSize),
		issueWake:      never,
		divBusyUntil:   make([]uint64, cfg.NumMulDiv),
		fpDivBusyUntil: make([]uint64, cfg.NumFPMulDiv),
	}
}

func nextPow2(n int) int {
	p := 1
	for p < n {
		p *= 2
	}
	return p
}

// batchSize is the most µ-ops one refill takes: enough to amortize the
// source's dispatch (and the call into the interpreter) to nothing per
// µ-op, few enough that a batch stays L1-resident.
const batchSize = 256

// source yields a core's stream of (fetch record, verdict) pairs, a
// batch at a time: a liveSource predicts, a trackSource (track.go)
// reads a trace and its prediction track.
type source interface {
	// fill makes b the next batch, reporting false at the end.
	fill(b *batch) bool
	// seek discards the next n µ-ops behind the batch and returns how
	// many it discarded, or reports false if the source cannot seek.
	seek(n uint64) (uint64, bool)
}

// batch is the stream's current batch: n µ-ops from seq on. A batch
// with pair set has its source make each pair as the core takes it;
// one without holds them: a µ-op's fetch record is the template entry
// its packed op names (trace.Records), with its seq, the op's
// direction and, for a load or store, the next of addrs, and its
// verdict is verdicts' entry. Fetch, Warm and Skip all take from the
// batch, so the stream stays in order however the phases interleave.
type batch struct {
	n, pos   int // pos: the next pair the core takes
	seq      uint64
	pair     func(i int, f *prog.FetchOp) verdict
	ops      []uint32
	addrs    []uint64 // the loads' and stores' addresses, from ops[0]'s on
	mem      int      // the index in addrs of the first load or store at or after pos
	tmpl     []prog.FetchOp
	verdicts []verdict // index for index with ops
}

// skip moves pos k pairs forward without taking them.
func (b *batch) skip(k int) {
	if b.pair == nil {
		for _, op := range b.ops[b.pos : b.pos+k] {
			if b.tmpl[op&^trace.TakenBit].Class.IsMem() {
				b.mem++
			}
		}
	}
	b.pos += k
}

// refill makes the source's next batch the current one. It reports
// false, leaving the batch empty, when the stream is exhausted.
func (c *Core) refill() bool {
	c.batch.n, c.batch.pos = 0, 0
	return c.src.fill(&c.batch)
}

// take consumes the pair at batch.pos, which must be in the batch
// (refill): it writes the fetch record into f and returns the verdict.
// A source that makes pairs at all makes them here, so a track costs no
// call per µ-op. Each branch taken, by fetch or by Warm, is counted
// here.
func (c *Core) take(f *prog.FetchOp) verdict {
	b := &c.batch
	var v verdict
	if b.pair != nil {
		v = b.pair(b.pos, f)
	} else {
		op := b.ops[b.pos]
		*f = b.tmpl[op&^trace.TakenBit]
		f.Seq, f.Taken = b.seq+uint64(b.pos), op&trace.TakenBit != 0
		if f.Class.IsMem() {
			f.Addr = b.addrs[b.mem]
			b.mem++
		}
		v = b.verdicts[b.pos]
	}
	b.pos++
	if f.Class.IsBranch() {
		c.bp.Account(f.Class, v&brMispred != 0, v&condMiss != 0, v&brVHC != 0)
	}
	return v
}

// liveSource is a live core's stream: a prog.Source, read a batch at a
// time and seeking when it can, and the predictor pair that gives each
// µ-op its verdict as the core takes it — never at fill, so a µ-op the
// core skips (the unfetched tail of a batch after FlushPipeline, say)
// trains nothing.
type liveSource struct {
	bp     *bpred.Unit
	vp     vpred.Predictor // nil without value prediction
	src    prog.Source
	seeker prog.Skipper   // src's seek, if it has one
	buf    []prog.MicroOp // the current batch
	pair   func(int, *prog.FetchOp) verdict
}

// newLive returns a live source over src with fresh predictors for k.
func newLive(k predictorKey, src prog.Source) *liveSource {
	l := &liveSource{bp: bpred.NewUnit(), src: src, buf: make([]prog.MicroOp, batchSize)}
	l.seeker, _ = src.(prog.Skipper)
	l.pair = func(i int, f *prog.FetchOp) verdict {
		m := &l.buf[i]
		*f = m.Fetch()
		return l.firstFetchPredict(m)
	}
	if k.valuePrediction {
		vp, ok := vpred.NewByName(k.predictorName, l.bp.History())
		if !ok {
			panic(fmt.Sprintf("core: unknown value predictor %q", k.predictorName)) // Validate rejects it
		}
		l.vp = vp
	}
	return l
}

func (l *liveSource) fill(b *batch) bool {
	ops := l.src.NextBatch(l.buf)
	if len(ops) == 0 {
		return false
	}
	b.n, b.seq, b.pair = len(ops), ops[0].Seq, l.pair
	return true
}

func (l *liveSource) seek(n uint64) (uint64, bool) {
	if l.seeker == nil {
		return 0, false
	}
	return l.seeker.Skip(n), true
}

// Stats returns the accumulated statistics.
func (c *Core) Stats() *Stats { return &c.stats }

// Memory exposes the cache hierarchy (for experiment reporting).
func (c *Core) Memory() *cache.Hierarchy { return c.mem }

// Branch exposes the branch statistics (for reporting): the counts of
// every branch taken from the stream.
func (c *Core) Branch() *bpred.Counts { return &c.bp }

// at returns the ring slot of seq (which must be in flight).
func (c *Core) at(seq uint64) *uop {
	return &c.ring[seq&uint64(len(c.ring)-1)]
}

// fetchSeq is the seq fetch handles next: the first beyond the window
// and the front-end queue.
func (c *Core) fetchSeq() uint64 { return c.headSeq + uint64(c.count+c.fqLen) }

// inWindow reports whether seq is a renamed, uncommitted µ-op.
func (c *Core) inWindow(seq uint64) bool {
	return seq-c.headSeq < uint64(c.count) // a seq below headSeq wraps far above
}

// Run simulates until n µ-ops have committed (or the source is
// exhausted) and returns the stats. It can be called repeatedly to
// extend a run (e.g. warm-up then measure).
func (c *Core) Run(n uint64) *Stats {
	st, _ := c.RunContext(context.Background(), n)
	return st
}

// ctxCheckInterval is the cancellation-checkpoint granularity of
// RunContext in loop iterations. An iteration is one stepped cycle
// plus whatever quiescent cycles it then jumps over, so a checkpoint
// lands every ~1K iterations — at least as many simulated cycles,
// microseconds of host time — while the common (never-canceled) path
// pays one counter increment per iteration.
const ctxCheckInterval = 1024

// deadlockCycles is how many consecutive cycles without a commit
// RunContext tolerates before declaring the machine wedged — far
// beyond any legitimate wait (a DRAM access is a few hundred cycles).
const deadlockCycles = 500_000

// RunContext is Run with cooperative cancellation: the cycle loop
// checks ctx every ctxCheckInterval iterations and returns ctx.Err()
// when it fires. The core stops between cycles, so its state stays
// consistent — a canceled run can be resumed by calling RunContext
// again, and the stats cover the cycles actually simulated.
//
// This is the only cycle loop and step its only body. After a cycle
// that changed no machine state the loop does not step through the
// identical cycles that follow: it moves the clock straight to the
// first cycle that could differ (quietUntil) and charges the skipped
// cycles what the stepped one cost. Results are those of stepping
// every cycle, bit for bit; ARCHITECTURE.md "The cycle loop" has the
// argument.
func (c *Core) RunContext(ctx context.Context, n uint64) (*Stats, error) {
	done := ctx.Done()    // nil for context.Background(): checks compile out
	c.SetTracer(c.tracer) // the window may have moved since the last run
	target := c.stats.Committed + n
	idle := uint64(0) // consecutive cycles without a commit
	sinceCheck := 0
	for c.stats.Committed < target {
		if done != nil {
			sinceCheck++
			if sinceCheck >= ctxCheckInterval {
				sinceCheck = 0
				select {
				case <-done:
					return &c.stats, ctx.Err()
				default:
				}
			}
		}
		before, stalls := c.state(), c.stallCounts()
		if !c.step() {
			break // source exhausted and pipeline drained
		}
		if c.stats.Committed != before.committed {
			idle = 0
			continue
		}
		idle++
		if idle <= deadlockCycles && c.state() == before {
			// A quiescent cycle: every cycle before quietUntil repeats
			// it. The jump stops where the deadlock detector would, so
			// a wedge is reported at the cycle stepping reports it.
			k := c.quietUntil() - c.now
			if left := deadlockCycles + 1 - idle; k > left {
				k = left
			}
			c.repeatCycle(stalls, k)
			idle += k
		}
		if idle > deadlockCycles {
			panic(fmt.Sprintf("core: %s deadlocked at cycle %d (%d in flight, iq=%d)",
				c.cfg.Label(), c.now, c.count, c.iqCount))
		}
	}
	return &c.stats, nil
}

// step simulates one cycle. It reports false, leaving the clock where
// it was, when the source is exhausted and the pipeline has drained.
func (c *Core) step() bool {
	c.commit()
	c.issue()
	c.rename()
	if !c.fetch() && c.count == 0 && c.fqLen == 0 && c.replayLen == 0 {
		return false
	}
	c.now++
	c.stats.Cycles++
	return true
}

// machineState is the machine state reduced to fields of which at
// least one moves whenever any stage does anything: a commit (and with
// it any squash) moves committed; failing that a rename moves count,
// and failing both an issue moves iqCount; a fetch moves fetched, the
// batch cursor or the replay region; the rest move on their own. A
// cycle that leaves it equal changed nothing — it was quiescent. The
// select list and the waiter chains are machine state it need not
// name: they move only in a cycle that renames or issues. issueWake is
// not machine state: it restates the list, to skip work whose outcome
// is known.
//
// It is taken and compared every cycle, so the counters are int32 and
// the struct fits in 56 bytes: Validate keeps every one below 2^21
// (count <= ROBSize, iqCount <= IQSize, fqLen <= FetchQueueSize,
// replayLen <= ROBSize + FetchQueueSize + 1, the batch within one
// trace chunk of 4096 µ-ops, headPortWait within three reads).
type machineState struct {
	committed, fetched uint64
	fetchStallUntil    uint64
	count, iqCount     int32
	fqLen, replayLen   int32
	pos, batchLen      int32
	headPortWait       int32
	fetchBlocked       bool
	pendingValid       bool
}

func (c *Core) state() machineState {
	return machineState{
		committed:       c.stats.Committed,
		fetched:         c.stats.Fetched,
		fetchStallUntil: c.fetchStallUntil,
		count:           int32(c.count),
		iqCount:         int32(c.iqCount),
		fqLen:           int32(c.fqLen),
		replayLen:       int32(c.replayLen),
		pos:             int32(c.batch.pos),
		batchLen:        int32(c.batch.n),
		headPortWait:    int32(c.headPortWait),
		fetchBlocked:    c.fetchBlocked,
		pendingValid:    c.pendingValid,
	}
}

// stallCounts are the counters a quiescent cycle can still bump: each
// stage counts finding itself blocked. (LEVTPortStalls is not one: a
// port stall at the window head moves headPortWait, and one further
// down follows a commit.)
type stallCounts struct {
	commitStopHead, robFull, iqFull, renameBank uint64
}

func (c *Core) stallCounts() stallCounts {
	return stallCounts{
		commitStopHead: c.stats.CommitStopHead,
		robFull:        c.stats.ROBFullStalls,
		iqFull:         c.stats.IQFullStalls,
		renameBank:     c.stats.RenameBankStalls,
	}
}

// quietUntil is called after a quiescent cycle and returns the first
// cycle, c.now or later, that might not repeat it. The stages read
// nothing but machine state and the clock, so with the state unchanged
// a cycle can differ from the last only where a comparison against the
// clock comes out differently; every such comparison is listed here
// with the cycle it flips at (flips in the past cannot recur). A bound
// may be too early — the loop then just steps one more quiescent cycle
// — but never too late.
func (c *Core) quietUntil() uint64 {
	t := uint64(never)
	bound := func(at uint64) {
		if at >= c.now && at < t {
			t = at
		}
	}
	// issue: nothing on the select list is selectable before issueWake,
	// which is now+1 whenever a selectable µ-op was refused a unit or
	// held back by a memory-order wait.
	bound(c.issueWake)
	// fetch: an I-cache fill or squash penalty, and the resolution of a
	// fetch-blocking branch.
	bound(c.fetchStallUntil)
	if c.fetchBlocked {
		bound(c.branchResolveCycle(c.fetchBlockedBy))
	}
	// rename: the front-end pipe delivering the queue's head.
	if c.fqLen > 0 {
		bound(c.at(c.headSeq+uint64(c.count)).fetchCycle + uint64(c.cfg.FetchToRenameLag))
	}
	if c.count > 0 {
		// commit: the head finishing execution.
		if h := c.at(c.headSeq); h.issued {
			bound(h.readyCycle)
		}
		// rename again: eeStageFor sees a producer through the EE
		// bypass up to one cycle after its rename, so a µ-op stalled
		// on the IQ or a PRF bank can classify differently the cycle
		// after; two cycles past the youngest rename it no longer can.
		bound(c.at(c.headSeq+uint64(c.count)-1).renameCycle + 2)
	}
	return t
}

// repeatCycle accounts for k further cycles identical to the quiescent
// one just stepped, before which the stall counters read was: the
// clock moves, and each counter gains again what that cycle added.
func (c *Core) repeatCycle(was stallCounts, k uint64) {
	c.now += k
	s := &c.stats
	s.Cycles += k
	s.CommitStopHead += k * (s.CommitStopHead - was.commitStopHead)
	s.ROBFullStalls += k * (s.ROBFullStalls - was.robFull)
	s.IQFullStalls += k * (s.IQFullStalls - was.iqFull)
	s.RenameBankStalls += k * (s.RenameBankStalls - was.renameBank)
}

// ResetStats zeroes the statistics (for warm-up / measure phases)
// without touching microarchitectural state.
func (c *Core) ResetStats() {
	c.stats = Stats{Cycles: 0}
}
