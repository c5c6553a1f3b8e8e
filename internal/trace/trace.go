// Package trace records and replays the dynamic µ-op stream of a
// workload, so a sweep over many machine configurations interprets
// each workload once instead of once per configuration.
//
// The cycle-level core (internal/core) is trace-driven by design: it
// pulls the committed-path µ-op stream from a prog.Source strictly in
// program order and never asks the source to rewind (squash replays
// come from the core's own buffers). Replaying a recorded stream is
// therefore exactly equivalent to re-running the functional
// interpreter: a trace-driven simulation produces a byte-identical
// report for the same (config, workload, warmup, measure).
//
// The payload is a load-value log: it holds what memory supplied, a
// uvarint per load, and nothing the program computes. The decoder
// holds the workload's Program and a register file of its own, and
// re-executes every µ-op through the interpreter's semantics
// (prog.Program.Exec), taking each load's value from the log: values,
// flags, addresses, store data, branch outcomes and next PCs all follow
// from the registers and the static instruction. In front of every
// chunkOps-th µ-op the payload carries a register checkpoint, the whole
// register file as uvarints, where a seek starts and against which a
// decoder that ran up to it checks what it re-executed, and behind
// every chunk an 8-byte digest of the chunk's load values, against
// which it checks what it read. The repo's
// workloads encode in 0.02–2.7 bytes per µ-op (long-dram's 2.88M-µ-op
// sampled-cell recording in 0.15), against the 80-byte in-memory
// prog.MicroOp, and 4096 µ-ops never take fewer than 64 bytes (a
// checkpoint), so no header can claim more µ-ops than its payload's
// size bounds.
//
// In memory a trace is its encoded bytes plus a table of chunk marks:
// where each checkpoint lies and the static index of the µ-op after
// it, noted by Record as it encodes and, for a trace read from bytes,
// by the one scan that validates the payload. There are two cursors,
// one mode each. A Replay decodes whole µ-ops from the nearest mark straight
// into its caller's buffer, and the trace retains nothing of it. A
// Records cursor hands out views of the packed dynamic records (a
// 4-byte static index and direction per µ-op, an 8-byte address per
// load or store) of chunks the trace shares between all such cursors
// and fills one at a time, on first touch. The rest of a µ-op's fetch
// record is static: its reader takes it from the program
// (prog.Program.FetchTemplate). Both cursors only move forward, and
// their Skip moves the position in O(1); the next read does the seek. A Head
// is a trace of another's first n µ-ops, sharing its bytes.
//
// An encoded trace carries a magic number, a format version, the workload
// name, a hash of the workload's program, the record count, and a
// trailing CRC-32 over the whole body, so corrupted, truncated or
// stale traces are rejected with distinct errors (ErrCorrupt,
// ErrVersion, ErrProgramMismatch) instead of silently replaying wrong
// streams; so is a payload whose re-executed registers disagree with a
// checkpoint or whose load values disagree with their chunk's digest.
// Marks are in-memory state; the payload stores only the checkpoints
// they point at.
// Callers are expected to fall back to execute-driven simulation when
// Parse or NewSource fails.
package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"sync"
	"sync/atomic"

	"eole/internal/isa"
	"eole/internal/prog"
	"eole/internal/workload"
)

// Version is the trace format version written by this package. Parse
// rejects any other version with ErrVersion.
const Version = 3

// magic identifies a trace stream ("EOLE Trace").
var magic = [4]byte{'E', 'O', 'L', 'T'}

// ReplaySlack is how many µ-ops beyond warmup+measure a trace must
// hold to guarantee byte-identical replay of that region: the core
// fetches ahead of commit by at most the window (ROB entries, counted
// here as nextPow2(ROB+8): 256 for every Table 1 machine), the fetch
// queue (128) and the pending µ-op, plus the commit-width overshoot. 4096 covers every
// configuration this repo defines with an order of magnitude to
// spare. Callers simulating a custom machine with an ROB beyond ~2000
// entries must size the margin from the config instead — see
// SlackFor.
const ReplaySlack = 4096

// SlackFor returns the replay margin for a machine with the given ROB
// and fetch-queue sizes: the core's window (counted as nextPow2(rob+8))
// plus the fetch queue and a generous allowance for the pending µ-op
// and commit overshoot, floored at ReplaySlack.
func SlackFor(robSize, fetchQueueSize int) uint64 {
	w := 1
	for w < robSize+8 {
		w *= 2
	}
	s := uint64(w + fetchQueueSize + 64)
	if s < ReplaySlack {
		return ReplaySlack
	}
	return s
}

// Format errors. Parse and NewSource wrap these, so callers can
// errors.Is-match them to decide between failing and falling back to
// execute-driven simulation.
var (
	// ErrCorrupt marks a truncated stream, a checksum mismatch or a
	// payload that disagrees with its register checkpoints.
	ErrCorrupt = errors.New("trace: corrupt or truncated trace")
	// ErrVersion marks a trace written by an incompatible format
	// version.
	ErrVersion = errors.New("trace: format version mismatch")
	// ErrProgramMismatch marks a trace recorded against a different
	// build of the workload's program.
	ErrProgramMismatch = errors.New("trace: workload program mismatch")
)

// chunkOps is the seek granularity: a mark in front of every
// chunkOps-th µ-op, and the size of one shared decoded chunk (4096
// µ-ops: 16 KB of ops plus 8 bytes per load or store). A seek decodes
// and drops half a chunk on average, ~40 µs; a sweep cell of a few tens
// of thousands of µ-ops decodes about a dozen chunks, once per trace.
const chunkOps = 4096

// mark is where the decoder resumes in front of µ-op k×chunkOps (the
// sequence number is the index; a mark is only kept for µ-ops the
// trace holds, so the decoder is never halted at one).
type mark struct {
	pos int // payload offset of the register checkpoint in front of it
	idx int // its static instruction index
}

// TakenBit is set in a packed op of a taken branch; the other bits of
// the op are its static instruction index.
const TakenBit uint32 = 1 << 31

// chunk is one shared decoded chunk, filled by the first Records
// cursor that reads into it. It holds the dynamic half of each µ-op's
// fetch record, packed: an op per µ-op, its static index with TakenBit
// set for a taken branch, and the effective address of each load and
// store, in stream order. The sequence number is the position, and
// everything else is a function of the static instruction: the µ-op's
// prog.FetchOp is its program's FetchTemplate() entry with Seq, Taken
// and, for a load or store, Addr set. That is 4 bytes per µ-op plus 8
// per load or store.
type chunk struct {
	once  sync.Once
	ops   []uint32
	addrs []uint64
}

// Trace is a recorded µ-op stream: the encoded payload plus its chunk
// marks. It is immutable to its users and safe for concurrent replay:
// every cursor is independent. The records a Records cursor
// decodes it keeps, chunk by chunk, and shares between all of them — so
// a sweep of N configurations pays one interpretation and one decode of
// the prefix it reads for N simulations, and reading a record copies
// nothing; a Replay decodes privately and leaves nothing behind. A
// decoded chunk is never written after its fill and never evicted: the
// views cursors hand out live as long as the trace.
type Trace struct {
	// Workload is the short benchmark name the trace was recorded
	// from (e.g. "mcf").
	Workload string
	// Count is the number of µ-op records.
	Count uint64
	// Complete reports that the workload halted within the recording
	// window, so the trace covers the program's entire dynamic stream
	// and can serve a request of any length.
	Complete bool

	progHash uint64
	payload  []byte
	// tail is the load-value digest of a head's last chunk when the
	// head ends inside it: its payload, a view of the longer trace's,
	// stops short of one, so Write and Encode append it.
	tail []byte

	// marks and chunks have one entry per started chunk of the stream.
	// Record fills them in; a trace parsed from bytes gets them from
	// the validating scan its first cursor runs (scanErr is that
	// scan's verdict), so both grow with what was actually decoded,
	// never with a header's claim.
	scan         sync.Once
	scanErr      error
	marks        []mark
	chunks       []chunk
	decoded      atomic.Uint64 // µ-ops held in filled chunks
	decodedBytes atomic.Uint64 // what their records take

	tracks sync.Map // key -> *trackSlot; see Trace.Track

	headMu sync.Mutex
	heads  map[uint64]*Trace // length -> head; see Trace.Head
}

// Track is per-µ-op data a consumer derives from a trace's stream and
// keeps beside it, like the shared chunks (internal/core's prediction
// tracks, one per predictor key). It is freed with the trace.
type Track interface {
	SizeBytes() uint64 // the memory it holds
}

// trackSlot is one key's track: built once, published when built.
type trackSlot struct {
	once sync.Once
	tr   atomic.Value // Track
}

// Track returns the trace's track under key, calling build if it has
// none yet. Exactly one caller builds it; the others that race it wait
// for that build.
func (t *Trace) Track(key any, build func() Track) Track {
	v, ok := t.tracks.Load(key)
	if !ok {
		v, _ = t.tracks.LoadOrStore(key, new(trackSlot))
	}
	s := v.(*trackSlot)
	s.once.Do(func() { s.tr.Store(build()) })
	return s.tr.Load().(Track)
}

// TrackBytes sums SizeBytes over the built tracks of the trace and of
// its heads.
func (t *Trace) TrackBytes() (n uint64) {
	t.tracks.Range(func(_, v any) bool {
		if tr, ok := v.(*trackSlot).tr.Load().(Track); ok {
			n += tr.SizeBytes()
		}
		return true
	})
	t.eachHead(func(h *Trace) { n += h.TrackBytes() })
	return n
}

// Head returns a trace of w's first n µ-ops: t itself when t holds no
// more, else a trace that shares t's payload and chunk marks (a head
// costs no recording and no payload) but decodes its own chunks and
// builds its own tracks. So what the full runs of a head leave behind
// is bounded by n, however long t is. The same n returns the same head,
// whose runs share those chunks and tracks. t must be a trace of w that
// SourceFor accepts.
func (t *Trace) Head(w workload.Workload, n uint64) (*Trace, error) {
	if err := t.check(w); err != nil {
		return nil, err
	}
	if n >= t.Count {
		return t, nil
	}
	t.headMu.Lock()
	defer t.headMu.Unlock()
	if h := t.heads[n]; h != nil {
		return h, nil
	}
	// The head's payload ends at µ-op n's record: decode up to it from
	// the mark in front of it. Inside a chunk, that is short of the
	// chunk's digest: the decoder has hashed the head's part of it.
	d := t.decoderAt(w.Program, n/chunkOps)
	var u prog.MicroOp
	for d.seq < n && d.next(&u) {
	}
	k := (n + chunkOps - 1) / chunkOps // the chunks the head starts
	h := &Trace{Workload: t.Workload, Count: n, progHash: t.progHash,
		payload: t.payload[:d.pos:d.pos], marks: t.marks[:k:k], chunks: make([]chunk, k)}
	if n%chunkOps != 0 {
		h.tail = binary.LittleEndian.AppendUint64(nil, d.sum)
	}
	if t.heads == nil {
		t.heads = make(map[uint64]*Trace)
	}
	t.heads[n] = h
	return h, nil
}

// eachHead calls f on each of t's heads.
func (t *Trace) eachHead(f func(*Trace)) {
	t.headMu.Lock()
	defer t.headMu.Unlock()
	for _, h := range t.heads {
		f(h)
	}
}

// Record executes w's functional machine for up to n µ-ops and returns
// the encoded trace. It keeps no decoded µ-op: each load's value is
// logged as it is interpreted, every chunkOps-th µ-op leaves a mark
// and a checkpoint of the registers in front of it, and every chunk
// ends with the digest of its load values. Recording is
// deterministic: two Record calls with equal arguments produce
// identical traces.
func Record(w workload.Workload, n uint64) *Trace {
	m := w.NewMachine()
	t := &Trace{Workload: w.Short, progHash: ProgramHash(w.Program)}
	var buf []byte
	var u prog.MicroOp
	var sum uint64
	idx := 0 // the static index of µ-op Count: a machine starts at 0
	for t.Count < n {
		if t.Count%chunkOps == 0 {
			t.marks = append(t.marks, mark{pos: len(buf), idx: idx})
			buf = appendRegs(buf, &m.Regs)
			sum = sumSeed
		}
		m.StepInto(&u) // not halted: the loop ends at a halt
		if u.Op == isa.OpLd {
			buf = binary.AppendUvarint(buf, u.Value)
			sum = mixLoad(sum, u.Value)
		}
		t.Count++
		if t.Count%chunkOps == 0 {
			buf = binary.LittleEndian.AppendUint64(buf, sum)
		}
		if u.Op == isa.OpHalt {
			t.Complete = true
			break
		}
		idx = w.Program.IndexOf(u.NextPC)
	}
	if t.Count%chunkOps != 0 {
		buf = binary.LittleEndian.AppendUint64(buf, sum)
	}
	t.payload = buf
	t.chunks = make([]chunk, len(t.marks))
	return t
}

// sumSeed and mixLoad are the digest of a chunk's load values: each
// step is a bijection of the digest so far and of the value, so a chunk
// whose loads differ from the recorded ones in any single value has
// another digest.
const sumSeed = 0xcbf29ce484222325

func mixLoad(sum, v uint64) uint64 { return bits.RotateLeft64((sum^v)*0x9e3779b97f4a7c15, 31) }

// appendRegs appends a register checkpoint: every register as a
// uvarint.
func appendRegs(b []byte, regs *[isa.NumArchRegs]uint64) []byte {
	for _, v := range regs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// CanServe reports whether replaying the trace is guaranteed
// byte-identical to execute-driven simulation for a run that fetches
// at most n µ-ops (callers pass warmup+measure+ReplaySlack).
func (t *Trace) CanServe(n uint64) bool { return t.Complete || t.Count >= n }

// SizeBytes returns the encoded payload size (excluding the fixed
// header), i.e. the memory the trace body occupies.
func (t *Trace) SizeBytes() int { return len(t.payload) + len(t.tail) }

// NewSource returns a fresh replay cursor implementing prog.Source.
// It resolves the recorded workload and fails with ErrProgramMismatch
// if the workload's program has changed since the trace was recorded
// (callers should fall back to execute-driven simulation).
func (t *Trace) NewSource() (*Replay, error) {
	w, err := workload.ByName(t.Workload)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return t.SourceFor(w)
}

// SourceFor builds a replay cursor over w's program, verifying that
// the trace was recorded from the same workload and program build.
// Use it instead of NewSource when the workload is already resolved
// (or is a synthetic workload not in the registry).
func (t *Trace) SourceFor(w workload.Workload) (*Replay, error) {
	if err := t.check(w); err != nil {
		return nil, err
	}
	return &Replay{t: t, prog: w.Program}, nil
}

// RecordsFor is SourceFor for a cursor over the shared records.
func (t *Trace) RecordsFor(w workload.Workload) (*Records, error) {
	if err := t.check(w); err != nil {
		return nil, err
	}
	return &Records{t: t, prog: w.Program}, nil
}

// check verifies that the trace was recorded from w's program and, the
// first time, that its payload decodes (buildMarks).
func (t *Trace) check(w workload.Workload) error {
	if w.Short != t.Workload {
		return fmt.Errorf("%w: trace is for %q, not %q", ErrProgramMismatch, t.Workload, w.Short)
	}
	if h := ProgramHash(w.Program); h != t.progHash {
		return fmt.Errorf("%w: workload %q program hash %016x, trace recorded against %016x",
			ErrProgramMismatch, t.Workload, h, t.progHash)
	}
	t.scan.Do(func() { t.scanErr = t.buildMarks(w.Program) })
	return t.scanErr
}

// DecodedUops returns how many µ-ops the trace and its heads currently
// hold in shared decoded chunks.
func (t *Trace) DecodedUops() uint64 {
	n := t.decoded.Load()
	t.eachHead(func(h *Trace) { n += h.DecodedUops() })
	return n
}

// DecodedBytes returns the memory the shared decoded chunks of the
// trace and its heads take — what replay costs beyond SizeBytes: 4
// bytes per decoded µ-op plus 8 per load or store among them.
func (t *Trace) DecodedBytes() uint64 {
	n := t.decodedBytes.Load()
	t.eachHead(func(h *Trace) { n += h.DecodedBytes() })
	return n
}

// ProgramHash fingerprints a program's static code (FNV-1a over every
// instruction field). It is folded into each trace header so a trace
// recorded against an older build of a workload is rejected instead of
// replayed against changed code.
func ProgramHash(p *prog.Program) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= prime64
		}
	}
	mix(uint64(len(p.Code)))
	for _, in := range p.Code {
		mix(uint64(in.Op))
		mix(uint64(uint16(in.Dst))<<32 | uint64(uint16(in.Src1))<<16 | uint64(uint16(in.Src2)))
		mix(uint64(in.Imm))
		mix(uint64(in.Target))
	}
	return h
}

// ---------------------------------------------------------------- replay

// Replay is a cursor over a trace's whole µ-ops, implementing
// prog.Source and prog.Skipper. It decodes privately:
// a read seats its own decoder at the position's chunk mark, drops the
// µ-ops in front of the position and decodes into the caller's buffer.
// The trace keeps nothing of what it reads, so a run that seeks through
// a long trace and reads a small part of it once (a sampled run) leaves
// nothing behind, and neither does a prediction track's build.
//
// A Replay is single-use and not safe for concurrent access; obtain
// one per simulation via Trace.NewSource / Trace.SourceFor.
type Replay struct {
	t    *Trace
	prog *prog.Program
	pos  uint64  // the stream position: the next µ-op's sequence number
	d    decoder // the private decoder, once seated (d.prog != nil)
}

// Next implements prog.Source.
func (r *Replay) Next(u *prog.MicroOp) bool {
	return r.seat() && r.decode(u)
}

// NextBatch implements prog.Source: a decode straight into dst.
func (r *Replay) NextBatch(dst []prog.MicroOp) []prog.MicroOp {
	if !r.seat() {
		return nil
	}
	n := 0
	for n < len(dst) && r.pos < r.t.Count && r.decode(&dst[n]) {
		n++
	}
	return dst[:n]
}

// Skip implements prog.Skipper: it moves the position n µ-ops forward
// (or to the end of the trace) and returns how far it moved. It
// decodes nothing — a caller that skips in slices pays no more than
// one that skips at once; the next read does the seek.
func (r *Replay) Skip(n uint64) uint64 {
	n = min(n, r.t.Count-r.pos)
	r.pos += n
	return n
}

// seat makes the private decoder ready to decode µ-op pos, reporting
// false at the end of the trace. A decoder already in pos's chunk (the
// position only moves forward, so it is not past pos) continues from
// where it is; otherwise it starts at the chunk's mark. Either way it
// drops the µ-ops in front of pos.
func (r *Replay) seat() bool {
	if r.pos >= r.t.Count {
		return false
	}
	if r.d.prog == nil || r.d.seq/chunkOps != r.pos/chunkOps {
		r.d = r.t.decoderAt(r.prog, r.pos/chunkOps)
	}
	var drop prog.MicroOp
	for r.d.seq < r.pos {
		if !r.d.next(&drop) {
			return false
		}
	}
	return true
}

// decode streams µ-op pos into u. The payload was validated when the
// cursor was made, so a failure here is memory corruption; the stream
// then just ends.
func (r *Replay) decode(u *prog.MicroOp) bool {
	if !r.d.next(u) {
		r.pos = r.t.Count
		return false
	}
	r.pos++
	return true
}

// decoderAt returns a decoder in front of µ-op k×chunkOps.
func (t *Trace) decoderAt(p *prog.Program, k uint64) decoder {
	m := t.marks[k]
	return decoder{prog: p, payload: t.payload, pos: m.pos, idx: m.idx, seq: k * chunkOps, fresh: true}
}

// Records is a read-only view cursor over a trace's packed records
// (see chunk), the one a full run's core (core.NewReplay) reads. A
// read returns views of the trace's shared decoded chunk under the
// position, filling the chunk if no cursor has yet: a sweep of
// configurations over one trace decodes each chunk once, every later
// read copies nothing, and what it reads stays decoded in the trace. It
// only moves forward, reading or skipping, and decodes no chunk it
// skips over.
//
// A Records cursor is single-use and not safe for concurrent access;
// obtain one per simulation via Trace.RecordsFor.
type Records struct {
	t    *Trace
	prog *prog.Program
	pos  uint64 // the next record's sequence number
}

// Next returns the rest of the chunk under the position — its ops, the
// addresses of the loads and stores among them, and the sequence
// number of the first op — and moves the position to the chunk's end;
// no ops only at the end of the trace. The views end where the chunk
// does, capacity included, and the caller must not write through them.
func (r *Records) Next() (ops []uint32, addrs []uint64, seq uint64) {
	seq = r.pos
	if seq >= r.t.Count {
		return nil, nil, seq
	}
	c := r.t.chunkAt(r.prog, r.pos/chunkOps)
	off := int(r.pos % chunkOps)
	// After a Skip into the chunk, its addresses start at the first
	// load or store at the position.
	mems, tmpl := 0, r.prog.FetchTemplate()
	for _, op := range c.ops[:off] {
		if tmpl[op&^TakenBit].Class.IsMem() {
			mems++
		}
	}
	r.pos += uint64(len(c.ops) - off)
	return c.ops[off:], c.addrs[mems:], seq
}

// Skip moves the position n records forward (or to the end of the
// trace) and returns how far it moved. It decodes nothing; the next
// read finds the chunk under the new position.
func (r *Records) Skip(n uint64) uint64 {
	n = min(n, r.t.Count-r.pos)
	r.pos += n
	return n
}

// addrScratch holds a chunk's addresses while it decodes, until it
// knows how many there are.
var addrScratch = sync.Pool{New: func() any { return new([chunkOps]uint64) }}

// chunkAt returns shared chunk k, decoding it if this is its first
// touch.
func (t *Trace) chunkAt(p *prog.Program, k uint64) *chunk {
	c := &t.chunks[k]
	c.once.Do(func() {
		ops := make([]uint32, min(t.Count-k*chunkOps, chunkOps))
		scratch := addrScratch.Get().(*[chunkOps]uint64)
		mems := 0
		d := t.decoderAt(p, k)
		var u prog.MicroOp
		for i := range ops {
			d.next(&u) // cannot fail: buildMarks decoded these bytes
			ops[i] = uint32(u.Index)
			if u.Taken {
				ops[i] |= TakenBit
			}
			if u.Op.Class().IsMem() {
				scratch[mems] = u.Addr
				mems++
			}
		}
		c.ops, c.addrs = ops, make([]uint64, mems)
		copy(c.addrs, scratch[:mems])
		addrScratch.Put(scratch)
		t.decoded.Add(uint64(len(ops)))
		t.decodedBytes.Add(4*uint64(len(ops)) + 8*uint64(mems))
	})
	return c
}

// buildMarks is the validating scan of a trace that came from bytes:
// it re-executes the whole payload once, keeping nothing but a mark per
// chunk, and fails with ErrCorrupt unless the payload decodes to
// exactly Count µ-ops, the registers agree with every checkpoint after
// the first, every chunk's load values agree with its digest, and every
// byte is consumed. So a payload that
// desynchronizes from the program (possible only past CRC and
// program-hash checks, i.e. in-memory corruption or a package bug) is
// rejected before any µ-op of it reaches a core. A recorded trace has
// its marks already.
//
// A hostile header can claim 2^60 records over a 10-byte body; nothing
// here is sized from Count — marks are appended as chunks are reached,
// and each chunk needs a checkpoint of at least 64 payload bytes.
func (t *Trace) buildMarks(p *prog.Program) error {
	if t.marks != nil {
		return nil
	}
	d := decoder{prog: p, payload: t.payload, fresh: true}
	var marks []mark
	var u prog.MicroOp
	for d.seq < t.Count {
		if d.seq%chunkOps == 0 {
			marks = append(marks, mark{pos: d.pos, idx: d.idx})
		}
		if !d.next(&u) {
			break
		}
	}
	if d.seq%chunkOps != 0 {
		d.checkSum() // the last chunk's: no checkpoint follows it
	}
	if d.err != nil || d.seq != t.Count || d.pos != len(t.payload) {
		return fmt.Errorf("%w: payload does not decode to %d µ-ops", ErrCorrupt, t.Count)
	}
	t.marks, t.chunks = marks, make([]chunk, len(marks))
	return nil
}

// decoder re-executes a trace: it runs the program over a register
// file of its own (prog.Program.Exec), reading each load's value from
// the payload, and meets a register checkpoint in front of every
// chunkOps-th µ-op and, behind the chunk, the digest of its load
// values. A decoder seated at a mark hashes from the chunk's start, so
// it checks every digest it reaches.
type decoder struct {
	prog    *prog.Program
	payload []byte
	pos     int
	idx     int
	seq     uint64
	regs    [isa.NumArchRegs]uint64
	sum     uint64 // the digest of the chunk's load values so far
	fresh   bool   // regs are unset: the next checkpoint sets them instead of checking them
	halted  bool
	err     error
}

func (d *decoder) next(u *prog.MicroOp) bool {
	if d.halted || d.err != nil {
		return false
	}
	if d.seq%chunkOps == 0 {
		for r := range d.regs {
			if v := d.uvarint(); v != d.regs[r] && !d.fresh {
				d.err = ErrCorrupt
			} else {
				d.regs[r] = v
			}
		}
		d.fresh, d.sum = false, sumSeed
	}
	if d.idx < 0 || d.idx >= len(d.prog.Code) {
		d.err = ErrCorrupt
	}
	if d.err != nil {
		return false
	}
	u.Seq = d.seq
	next := d.prog.Exec(d.idx, &d.regs, d, u)
	if d.err != nil {
		return false
	}
	d.seq, d.idx, d.halted = d.seq+1, next, u.Op == isa.OpHalt
	if d.seq%chunkOps == 0 {
		d.checkSum()
	}
	return d.err == nil
}

// Read is prog.Loads: a load's value is the next one the payload logs.
func (d *decoder) Read(uint64) uint64 {
	v := d.uvarint()
	d.sum = mixLoad(d.sum, v)
	return v
}

// checkSum reads a chunk's digest and fails the decoder unless it is
// the digest of the load values it read.
func (d *decoder) checkSum() {
	if d.err != nil {
		return
	}
	if len(d.payload)-d.pos < 8 || binary.LittleEndian.Uint64(d.payload[d.pos:]) != d.sum {
		d.err = ErrCorrupt
		return
	}
	d.pos += 8
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.payload[d.pos:])
	if n <= 0 {
		d.err = ErrCorrupt
		return 0
	}
	d.pos += n
	return v
}

// ---------------------------------------------------------------- encoding

// Write encodes the trace to w: magic, version, workload name, program
// hash, record count, completeness, payload length, payload, and a
// trailing CRC-32 (IEEE) over everything before it.
func (t *Trace) Write(w io.Writer) error {
	hdr := t.header()
	crc := crc32.NewIEEE()
	for _, b := range [][]byte{hdr, t.payload, t.tail} {
		crc.Write(b)
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	_, err := w.Write(binary.LittleEndian.AppendUint32(nil, crc.Sum32()))
	return err
}

// Encode returns what Write writes, in one buffer, and makes the
// trace's payload a view of it: the bytes exist once, as they do for a
// trace Parse made. It changes what the trace reads from, so call it
// only before the trace is shared (before any cursor or head).
func (t *Trace) Encode() []byte {
	hdr := t.header()
	b := make([]byte, 0, len(hdr)+t.SizeBytes()+4)
	b = append(append(append(b, hdr...), t.payload...), t.tail...)
	t.payload, t.tail = b[len(hdr):len(b):len(b)], nil
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// header is what Write writes in front of the payload.
func (t *Trace) header() []byte {
	hdr := make([]byte, 0, 64)
	hdr = append(hdr, magic[:]...)
	hdr = binary.AppendUvarint(hdr, Version)
	hdr = binary.AppendUvarint(hdr, uint64(len(t.Workload)))
	hdr = append(hdr, t.Workload...)
	hdr = binary.LittleEndian.AppendUint64(hdr, t.progHash)
	hdr = binary.AppendUvarint(hdr, t.Count)
	if t.Complete {
		hdr = append(hdr, 1)
	} else {
		hdr = append(hdr, 0)
	}
	return binary.AppendUvarint(hdr, uint64(t.SizeBytes()))
}

// Read is Parse for a trace on a stream.
func Read(r io.Reader) (*Trace, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace: read: %w", err)
	}
	return Parse(b)
}

// Parse decodes a trace encoded by Write or Encode, verifying magic,
// version and checksum. It returns ErrCorrupt for truncated or
// bit-flipped input and ErrVersion for traces from an incompatible
// format version. The returned trace's payload aliases b — the bytes
// exist once — so the caller must not modify b afterwards.
func Parse(b []byte) (*Trace, error) {
	if len(b) < len(magic)+4 || [4]byte(b[:4]) != magic {
		return nil, fmt.Errorf("%w: missing EOLT magic", ErrCorrupt)
	}
	body, sum := b[:len(b)-4], binary.LittleEndian.Uint32(b[len(b)-4:])
	if crc32.ChecksumIEEE(body) != sum {
		return nil, fmt.Errorf("%w: CRC mismatch", ErrCorrupt)
	}
	d := headerReader{b: body, pos: len(magic)}
	version := d.uvarint()
	if d.err != nil {
		return nil, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	if version != Version {
		return nil, fmt.Errorf("%w: file version %d, this build reads %d", ErrVersion, version, Version)
	}
	name := d.bytes(int(d.uvarint()))
	progHash := d.uint64le()
	count := d.uvarint()
	complete := d.byte() != 0
	payload := d.bytes(int(d.uvarint()))
	if d.err != nil {
		return nil, fmt.Errorf("%w: truncated header", ErrCorrupt)
	}
	if d.pos != len(body) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(body)-d.pos)
	}
	return &Trace{
		Workload: string(name),
		Count:    count,
		Complete: complete,
		progHash: progHash,
		payload:  payload,
	}, nil
}

// headerReader decodes the fixed header fields with sticky error
// handling (the payload, protected by the CRC, is validated against
// the program when the trace is first given a source: buildMarks).
type headerReader struct {
	b   []byte
	pos int
	err error
}

func (d *headerReader) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.pos:])
	if n <= 0 {
		d.err = ErrCorrupt
		return 0
	}
	d.pos += n
	return v
}

// bytes returns the next n header bytes, or nil with the sticky error
// set when the header is short (the length test is written to avoid
// int overflow on hostile n).
func (d *headerReader) bytes(n int) []byte {
	if d.err != nil || n < 0 || n > len(d.b)-d.pos {
		d.err = ErrCorrupt
		return nil
	}
	out := d.b[d.pos : d.pos+n]
	d.pos += n
	return out
}

func (d *headerReader) byte() byte {
	b := d.bytes(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *headerReader) uint64le() uint64 {
	b := d.bytes(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}
