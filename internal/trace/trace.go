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
// The on-disk/in-memory encoding is static-aware and varint-packed:
// because the decoder holds the workload's Program, each record stores
// only the fields the static instruction cannot predict —
//
//   - register-writing compute µ-ops: the result value (uvarint) and,
//     for flag-writing opcodes, the flag byte;
//   - loads: the effective address as a zigzag delta from the previous
//     memory address, plus the loaded value;
//   - stores: the address delta plus the stored value;
//   - conditional branches: a single taken byte;
//   - indirect jumps (ret/jr): the target as a zigzag index delta;
//   - direct jumps, calls and halt: nothing at all.
//
// Sequence numbers, PCs, opcodes, operand registers, call link values
// and next-PCs are all reconstructed from the Program while decoding.
// The repo's workloads encode in 2-5.4 bytes per µ-op, against the
// 80-byte in-memory prog.MicroOp.
//
// In memory a trace is its encoded bytes plus a table of chunk marks:
// the decoder's resume state in front of every chunkOps-th µ-op, noted
// by Record as it encodes and, for a trace read from bytes, by the one
// scan that validates the payload. There are two cursors, one mode
// each. A Replay decodes whole µ-ops from the nearest mark straight
// into its caller's buffer, and the trace retains nothing of it. A
// Records cursor hands out views of the 40-byte fetch records
// (prog.FetchOp) of chunks the trace shares between all such cursors
// and fills one at a time, on first touch; it only reads forward. A
// Replay's Skip moves its position in O(1); the next read does the seek.
// A Head is a trace of another's first n µ-ops, sharing its bytes.
//
// A trace file carries a magic number, a format version, the workload
// name, a hash of the workload's program, the record count, and a
// trailing CRC-32 over the whole body, so corrupted, truncated or
// stale traces are rejected with distinct errors (ErrCorrupt,
// ErrVersion, ErrProgramMismatch) instead of silently replaying wrong
// streams. Marks are in-memory state; nothing about them is stored.
// Callers are expected to fall back to execute-driven simulation when
// Read or NewSource fails.
package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"eole/internal/isa"
	"eole/internal/prog"
	"eole/internal/workload"
)

// Version is the trace format version written by this package. Read
// rejects any other version with ErrVersion.
const Version = 1

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

// Format errors. Read and NewSource wrap these, so callers can
// errors.Is-match them to decide between failing and falling back to
// execute-driven simulation.
var (
	// ErrCorrupt marks a truncated stream or a checksum mismatch.
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
// records, 160 KB). A seek decodes and drops half a chunk on average,
// ~40 µs; a sweep cell of a few tens of thousands of µ-ops decodes
// about a dozen chunks, once per trace.
const chunkOps = 4096

// mark is the decoder's resume state in front of µ-op k×chunkOps (the
// sequence number is the index; a mark is only kept for µ-ops the
// trace holds, so the decoder is never halted at one).
type mark struct {
	pos      int    // payload offset of the µ-op's record
	idx      int    // its static instruction index
	prevAddr uint64 // the address its memory delta is relative to
}

// chunk is one shared decoded chunk, filled by the first Records
// cursor that reads into it.
type chunk struct {
	once sync.Once
	recs []prog.FetchOp
}

// Trace is a recorded µ-op stream: the encoded payload plus its chunk
// marks. It is immutable to its users and safe for concurrent replay:
// every cursor is independent. The fetch records a Records cursor
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

	// marks and chunks have one entry per started chunk of the stream.
	// Record fills them in; a trace parsed from bytes gets them from
	// the validating scan its first cursor runs (scanErr is that
	// scan's verdict), so both grow with what was actually decoded,
	// never with a header's claim.
	scan    sync.Once
	scanErr error
	marks   []mark
	chunks  []chunk
	decoded atomic.Uint64 // records held in filled chunks

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
	// the mark in front of it.
	d := t.decoderAt(w.Program, n/chunkOps)
	var u prog.MicroOp
	for d.seq < n && d.next(&u) {
	}
	k := (n + chunkOps - 1) / chunkOps // the chunks the head starts
	h := &Trace{Workload: t.Workload, Count: n, progHash: t.progHash,
		payload: t.payload[:d.pos:d.pos], marks: t.marks[:k:k], chunks: make([]chunk, k)}
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

// Payload pre-sizing for Record: payloadHint bytes per µ-op is above
// every workload's density (long-dram's late phases are the densest at
// 5.4), so a recording's buffer is allocated once instead of being
// grown and copied while the workload's memory image is live; the cap
// keeps a "record until halt" n from sizing an allocation. Measured
// against plain append growth (1.25× steps, so 5.1–5.5 × the payload
// allocated in all): Record allocates 1.1–2.6 × the payload beyond the
// machine's own (4.0 × for the sparsest stream, vortex at 2 B/µ-op,
// which pays the right-sizing copy below), a 2.88M-µ-op long-dram
// recording takes 72 ms instead of 192, and on the benchmark's
// sampled_long workload, three alternated pairs, peak_rss_mb reads
// 99–100 instead of 131 and setup_s 0.81–0.83 instead of 0.86–0.89.
const (
	payloadHint    = 6
	payloadHintCap = 64 << 20
)

// Record executes w's functional machine for up to n µ-ops and returns
// the encoded trace. It keeps no decoded µ-op: each one is encoded as
// it is interpreted, and every chunkOps-th leaves a mark. Recording is
// deterministic: two Record calls with equal arguments produce
// identical traces.
func Record(w workload.Workload, n uint64) *Trace {
	m := w.NewMachine()
	hint := uint64(payloadHintCap)
	if n < payloadHintCap/payloadHint {
		hint = n * payloadHint
	}
	enc := encoder{prog: w.Program, buf: make([]byte, 0, hint)}
	t := &Trace{Workload: w.Short, progHash: ProgramHash(w.Program)}
	var u prog.MicroOp
	for t.Count < n {
		if !m.StepInto(&u) {
			t.Complete = true
			break
		}
		if t.Count%chunkOps == 0 {
			t.marks = append(t.marks, mark{pos: len(enc.buf), idx: u.Index, prevAddr: enc.prevAddr})
		}
		enc.append(&u)
		t.Count++
		if u.Op == isa.OpHalt {
			t.Complete = true
			break
		}
	}
	t.payload = enc.buf
	if cap(enc.buf)-len(enc.buf) > len(enc.buf)/4 {
		// A sparse stream left the hint mostly unused: keep only the
		// bytes, not the capacity.
		t.payload = append(make([]byte, 0, len(enc.buf)), enc.buf...)
	}
	t.chunks = make([]chunk, len(t.marks))
	return t
}

// CanServe reports whether replaying the trace is guaranteed
// byte-identical to execute-driven simulation for a run that fetches
// at most n µ-ops (callers pass warmup+measure+ReplaySlack).
func (t *Trace) CanServe(n uint64) bool { return t.Complete || t.Count >= n }

// SizeBytes returns the encoded payload size (excluding the fixed
// header), i.e. the memory the trace body occupies.
func (t *Trace) SizeBytes() int { return len(t.payload) }

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

// RecordsFor is SourceFor for a cursor over the shared fetch records.
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
// hold in shared decoded chunks — the memory replay costs beyond
// SizeBytes, a 40-byte prog.FetchOp each.
func (t *Trace) DecodedUops() uint64 {
	n := t.decoded.Load()
	t.eachHead(func(h *Trace) { n += h.DecodedUops() })
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

// ---------------------------------------------------------------- encode

// encoder appends the dynamic fields of one µ-op at a time; see the
// package comment for the per-class record layout.
type encoder struct {
	prog     *prog.Program
	buf      []byte
	prevAddr uint64
}

func (e *encoder) append(u *prog.MicroOp) {
	in := e.prog.Code[u.Index]
	switch {
	case in.Op == isa.OpHalt:
		// Nothing: halting is implied by the opcode.
	case in.Class() == isa.ClassBranch:
		t := byte(0)
		if u.Taken {
			t = 1
		}
		e.buf = append(e.buf, t)
	case in.Class() == isa.ClassJump || in.Class() == isa.ClassCall:
		// Target and link value are static.
	case in.Class().IsIndirect():
		next := e.prog.IndexOf(u.NextPC)
		e.buf = appendZigzag(e.buf, int64(next)-int64(u.Index+1))
	case in.Class() == isa.ClassLoad:
		e.buf = appendZigzag(e.buf, int64(u.Addr-e.prevAddr))
		e.prevAddr = u.Addr
		e.buf = binary.AppendUvarint(e.buf, u.Value)
	case in.Class() == isa.ClassStore:
		e.buf = appendZigzag(e.buf, int64(u.Addr-e.prevAddr))
		e.prevAddr = u.Addr
		e.buf = binary.AppendUvarint(e.buf, u.StoreData)
	default:
		e.buf = binary.AppendUvarint(e.buf, u.Value)
		if in.Op.WritesFlags() {
			e.buf = append(e.buf, byte(u.Flags))
		}
	}
}

func appendZigzag(b []byte, v int64) []byte {
	return binary.AppendUvarint(b, uint64(v<<1)^uint64(v>>63))
}

// ---------------------------------------------------------------- replay

// Replay is a cursor over a trace's whole µ-ops, implementing
// prog.Source, prog.BatchSource and prog.Skipper. It decodes privately:
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

// NextBatch implements prog.BatchSource: a decode straight into dst.
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
	return decoder{prog: p, payload: t.payload, pos: m.pos, idx: m.idx, seq: k * chunkOps, prevAddr: m.prevAddr}
}

// Records is a read-only view cursor over a trace's fetch records
// (prog.FetchOp), the one a full run's core (core.NewReplay) reads. A
// read returns a view of the trace's shared decoded chunk under the
// position, filling the chunk if no cursor has yet: a sweep of
// configurations over one trace decodes each chunk once, every later
// read copies nothing, and what it reads stays decoded in the trace. It
// only reads forward, as a core fetches: a full run neither skips nor
// warms, so chunks it does not reach are never decoded.
//
// A Records cursor is single-use and not safe for concurrent access;
// obtain one per simulation via Trace.RecordsFor.
type Records struct {
	t    *Trace
	prog *prog.Program
	pos  uint64         // the next record's sequence number
	cur  []prog.FetchOp // what is left of the chunk under pos
}

// Next returns the next 1..n records — a capacity-capped view of one
// shared chunk, which the caller must not write through — and none only
// at the end of the trace.
func (r *Records) Next(n int) []prog.FetchOp {
	if r.pos >= r.t.Count {
		return nil
	}
	if len(r.cur) == 0 {
		r.cur = r.t.chunkAt(r.prog, r.pos)
	}
	k := min(n, len(r.cur))
	v := r.cur[:k:k]
	r.cur = r.cur[k:]
	r.pos += uint64(k)
	return v
}

// chunkAt returns the shared records from pos (< Count) to the end of
// its chunk, decoding the chunk if this is its first touch.
func (t *Trace) chunkAt(p *prog.Program, pos uint64) []prog.FetchOp {
	k := pos / chunkOps
	c := &t.chunks[k]
	c.once.Do(func() {
		recs := make([]prog.FetchOp, min(t.Count-k*chunkOps, chunkOps))
		d := t.decoderAt(p, k)
		var u prog.MicroOp
		for i := range recs {
			d.next(&u) // cannot fail: buildMarks decoded these bytes
			recs[i] = u.Fetch()
		}
		c.recs = recs
		t.decoded.Add(uint64(len(recs)))
	})
	return c.recs[pos-k*chunkOps:]
}

// buildMarks is the validating scan of a trace that came from bytes:
// it decodes the whole payload once, keeping nothing but a mark per
// chunk, and fails with ErrCorrupt unless the payload decodes to
// exactly Count µ-ops and every byte is consumed. The decode walks the
// program alongside the records, so a payload that desynchronizes
// from the program (possible only past CRC and program-hash checks,
// i.e. in-memory corruption or a package bug) is rejected before any
// µ-op of it reaches a core. A recorded trace has its marks already.
//
// A hostile header can claim 2^60 records over a 10-byte body; nothing
// here is sized from Count — marks are appended as chunks are reached.
// (A legitimate trace can exceed one record per payload byte: direct
// jumps and halt encode zero bytes.)
func (t *Trace) buildMarks(p *prog.Program) error {
	if t.marks != nil {
		return nil
	}
	d := decoder{prog: p, payload: t.payload}
	var marks []mark
	var u prog.MicroOp
	for d.seq < t.Count {
		if d.seq%chunkOps == 0 {
			marks = append(marks, mark{pos: d.pos, idx: d.idx, prevAddr: d.prevAddr})
		}
		if !d.next(&u) {
			break
		}
	}
	if d.err != nil || d.seq != t.Count || d.pos != len(t.payload) {
		return fmt.Errorf("%w: payload does not decode to %d µ-ops", ErrCorrupt, t.Count)
	}
	t.marks, t.chunks = marks, make([]chunk, len(marks))
	return nil
}

// decoder streams µ-ops out of a compact payload, mirroring encoder.
type decoder struct {
	prog     *prog.Program
	payload  []byte
	pos      int
	idx      int
	seq      uint64
	prevAddr uint64
	halted   bool
	err      error
}

func (d *decoder) next(u *prog.MicroOp) bool {
	if d.halted || d.err != nil {
		return false
	}
	if d.idx < 0 || d.idx >= len(d.prog.Code) {
		d.err = ErrCorrupt
		return false
	}
	// Field by field, in place: a composite literal would build the whole
	// µ-op aside and copy it over *u.
	in := &d.prog.Code[d.idx]
	u.Seq, u.Index, u.PC = d.seq, d.idx, d.prog.PC(d.idx)
	u.Op, u.Dst, u.Src1, u.Src2 = in.Op, in.Dst, in.Src1, in.Src2
	u.Value, u.Flags, u.Addr, u.StoreData, u.Taken = 0, 0, 0, 0, false
	d.seq++

	next := d.idx + 1
	switch {
	case in.Op == isa.OpHalt:
		d.halted = true
		u.NextPC = u.PC
		return true
	case in.Class() == isa.ClassBranch:
		u.Taken = d.byte() != 0
		if u.Taken {
			next = in.Target
		}
	case in.Class() == isa.ClassJump:
		u.Taken = true
		next = in.Target
	case in.Class() == isa.ClassCall:
		u.Taken = true
		u.Value = d.prog.PC(d.idx + 1)
		next = in.Target
	case in.Class().IsIndirect():
		u.Taken = true
		next = d.idx + 1 + int(d.zigzag())
	case in.Class() == isa.ClassLoad:
		d.prevAddr += uint64(d.zigzag())
		u.Addr = d.prevAddr
		u.Value = d.uvarint()
	case in.Class() == isa.ClassStore:
		d.prevAddr += uint64(d.zigzag())
		u.Addr = d.prevAddr
		u.StoreData = d.uvarint()
	default:
		u.Value = d.uvarint()
		if in.Op.WritesFlags() {
			u.Flags = isa.Flags(d.byte())
		}
	}
	if d.err != nil {
		return false
	}
	d.idx = next
	u.NextPC = d.prog.PC(next)
	return true
}

func (d *decoder) byte() byte {
	if d.err != nil || d.pos >= len(d.payload) {
		d.err = ErrCorrupt
		return 0
	}
	b := d.payload[d.pos]
	d.pos++
	return b
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

func (d *decoder) zigzag() int64 {
	v := d.uvarint()
	return int64(v>>1) ^ -int64(v&1)
}

// ---------------------------------------------------------------- file IO

// Write encodes the trace to w: magic, version, workload name, program
// hash, record count, completeness, payload length, payload, and a
// trailing CRC-32 (IEEE) over everything before it.
func (t *Trace) Write(w io.Writer) error {
	hdr := t.header()
	crc := crc32.NewIEEE()
	crc.Write(hdr)
	crc.Write(t.payload)
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if _, err := w.Write(t.payload); err != nil {
		return err
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
	b := make([]byte, 0, len(hdr)+len(t.payload)+4)
	b = append(append(b, hdr...), t.payload...)
	t.payload = b[len(hdr):len(b):len(b)]
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
	return binary.AppendUvarint(hdr, uint64(len(t.payload)))
}

// Read decodes a trace written by Write, verifying magic, version and
// checksum. It returns ErrCorrupt for truncated or bit-flipped input
// and ErrVersion for traces from an incompatible format version.
func Read(r io.Reader) (*Trace, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace: read: %w", err)
	}
	return Parse(b)
}

// Parse is Read for a trace already in memory. The returned trace's
// payload aliases b — the bytes exist once — so the caller must not
// modify b afterwards.
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

// Path returns the conventional location of a workload's trace inside
// a trace directory: <dir>/<short>.trace. Every consumer that shares
// trace directories (eolesim -tracedir, the simsvc trace store) uses
// this helper, so the naming contract lives in one place.
func Path(dir, short string) string {
	return filepath.Join(dir, short+".trace")
}

// WriteFile atomically persists a trace (write to a temp file in the
// same directory, then rename), so concurrent readers never observe a
// partial file. The parent directory is created if missing.
func WriteFile(path string, t *Trace) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.CreateTemp(filepath.Dir(path), "tmp-*.trace")
	if err != nil {
		return err
	}
	name := f.Name()
	if err := t.Write(f); err != nil {
		f.Close()
		os.Remove(name)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(name)
		return err
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return err
	}
	return nil
}

// ReadFile loads and validates a trace file (see Read for the error
// contract; a missing file surfaces the os.Open error).
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
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
