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
// Typical workloads encode in 2-4 bytes per µ-op, against the ~90-byte
// in-memory prog.MicroOp.
//
// A trace file carries a magic number, a format version, the workload
// name, a hash of the workload's program, the record count, and a
// trailing CRC-32 over the whole body, so corrupted, truncated or
// stale traces are rejected with distinct errors (ErrCorrupt,
// ErrVersion, ErrProgramMismatch) instead of silently replaying wrong
// streams. Callers are expected to fall back to execute-driven
// simulation when Read or NewSource fails.
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

// Trace is a recorded µ-op stream. It is immutable after creation and
// safe for concurrent replay: every NewSource call returns an
// independent cursor. The compact payload is decoded into the full
// µ-op slice once, lazily, and shared by all replays — so a sweep of N
// configurations pays one interpretation and one decode for N
// simulations, and each replayed µ-op is a single slice copy.
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

	// Lazily decoded stream, shared by every Replay of this trace.
	decodeOnce sync.Once
	decoded    []prog.MicroOp
	decodeErr  error
}

// Record executes w's functional machine for up to n µ-ops and returns
// the encoded trace. Recording is deterministic: two Record calls with
// equal arguments produce identical traces.
func Record(w workload.Workload, n uint64) *Trace {
	m := w.NewMachine()
	enc := encoder{prog: w.Program}
	ops := make([]prog.MicroOp, 0, 4096)
	complete := false
	for uint64(len(ops)) < n {
		u, ok := m.Step()
		if !ok {
			complete = true
			break
		}
		enc.append(&u)
		ops = append(ops, u)
		if u.Op == isa.OpHalt {
			complete = true
			break
		}
	}
	t := &Trace{
		Workload: w.Short,
		Count:    uint64(len(ops)),
		Complete: complete,
		progHash: ProgramHash(w.Program),
		payload:  enc.buf,
	}
	// The recorder already has the full stream in hand; seeding the
	// decoded cache saves the first replayer the decode pass.
	t.decoded = ops
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
	if w.Short != t.Workload {
		return nil, fmt.Errorf("%w: trace is for %q, not %q", ErrProgramMismatch, t.Workload, w.Short)
	}
	if h := ProgramHash(w.Program); h != t.progHash {
		return nil, fmt.Errorf("%w: workload %q program hash %016x, trace recorded against %016x",
			ErrProgramMismatch, t.Workload, h, t.progHash)
	}
	ops, err := t.ops(w.Program)
	if err != nil {
		return nil, err
	}
	return &Replay{ops: ops}, nil
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

// Replay is a cursor over a trace's decoded µ-op stream, implementing
// prog.Source. Each Next is a single slice copy — the one-time decode
// is shared across every Replay of the trace. A Replay is single-use
// and not safe for concurrent access; obtain one per simulation via
// Trace.NewSource / Trace.SourceFor.
type Replay struct {
	ops []prog.MicroOp
	pos int
}

// Next implements prog.Source.
func (r *Replay) Next(u *prog.MicroOp) bool {
	if r.pos >= len(r.ops) {
		return false
	}
	*u = r.ops[r.pos]
	r.pos++
	return true
}

// NextBatch implements prog.BatchSource: a replayed batch is one
// memcpy out of the shared decoded stream.
func (r *Replay) NextBatch(dst []prog.MicroOp) int {
	n := copy(dst, r.ops[r.pos:])
	r.pos += n
	return n
}

// ops returns the decoded stream, decoding the payload on first use.
// The decode walks the program alongside the records, so a payload
// that desynchronizes from the program (possible only past CRC and
// program-hash checks, i.e. in-memory corruption or a package bug)
// yields ErrCorrupt rather than a wrong stream.
func (t *Trace) ops(p *prog.Program) ([]prog.MicroOp, error) {
	t.decodeOnce.Do(func() {
		if t.decoded != nil {
			return // seeded by Record
		}
		d := decoder{prog: p, payload: t.payload}
		// Pre-size from Count but cap by the payload: a hostile header
		// can claim 2^60 records over a 10-byte body, and the
		// pre-allocation must not trust it. (A legitimate trace can
		// exceed one record per payload byte — direct jumps and halt
		// encode zero bytes — so this only bounds the initial
		// capacity; append still grows to the real count.)
		capHint := t.Count
		if max := uint64(len(t.payload)) + 4096; capHint > max {
			capHint = max
		}
		ops := make([]prog.MicroOp, 0, capHint)
		for i := uint64(0); i < t.Count; i++ {
			var u prog.MicroOp
			if !d.next(&u) {
				break
			}
			ops = append(ops, u)
		}
		if d.err != nil || uint64(len(ops)) != t.Count || d.pos != len(t.payload) {
			t.decodeErr = fmt.Errorf("%w: payload does not decode to %d µ-ops", ErrCorrupt, t.Count)
			return
		}
		t.decoded = ops
	})
	return t.decoded, t.decodeErr
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
	in := d.prog.Code[d.idx]
	*u = prog.MicroOp{
		Seq:   d.seq,
		Index: d.idx,
		PC:    d.prog.PC(d.idx),
		Op:    in.Op,
		Dst:   in.Dst,
		Src1:  in.Src1,
		Src2:  in.Src2,
	}
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
	hdr = binary.AppendUvarint(hdr, uint64(len(t.payload)))

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

// Read decodes a trace written by Write, verifying magic, version and
// checksum. It returns ErrCorrupt for truncated or bit-flipped input
// and ErrVersion for traces from an incompatible format version.
func Read(r io.Reader) (*Trace, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("trace: read: %w", err)
	}
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
// handling (the payload itself is validated lazily during replay,
// protected by the CRC).
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
