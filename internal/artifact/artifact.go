// Package artifact is the persistent content-addressed artifact
// fabric: a multi-tier store (memory LRU → local disk → HTTP peer)
// holding the byte payloads the simulation service wants to survive a
// process — encoded simulation reports and recorded µ-op traces —
// behind one typed Get/Put/Stat API.
//
// Keys are lowercase hex addresses, produced by simsvc.KeyOf for
// results and simsvc.TraceKeyOf for traces. A result key is a content
// address: equal keys imply equal bytes. A trace key names the
// workload's program, not the trace's length, so a longer recording is
// put under the key of a shorter one and replaces it in each tier it
// is put to. A tier still holding the shorter trace only serves a
// trace too short for a long request, which its user then records
// again: never a wrong stream.
//
// On disk an artifact lives at <kindDir>/<shard>/<key>.art, where
// shard is the key's first two hex characters — a flat directory
// would degrade badly at fleet scale (millions of cached cells in one
// readdir). Each file carries a fixed-size integrity footer
// (CRC-32 + length + magic) so a torn write, truncation or bit rot is
// detected on read; a corrupt entry is moved to <kindDir>/quarantine/
// for post-mortem rather than deleted, and the read reports a miss so
// the caller re-simulates. Writes are temp-file + rename, so a crash
// mid-write never leaves a partial artifact visible under its key.
//
// The disk tier is size-budgeted per kind: when a Put pushes a kind
// over Options.DiskBytes, the oldest artifacts (by mtime) are evicted
// until the kind fits again. Artifacts are re-creatable by
// construction, so eviction only costs warmth, never correctness.
package artifact

import (
	"bytes"
	"container/list"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"eole/internal/obs"
)

// Kind partitions the key space: artifacts of different kinds never
// collide, each kind has its own directory tree and disk budget.
type Kind string

const (
	// KindResult holds JSON-encoded simulation reports keyed by the
	// simsvc content address.
	KindResult Kind = "result"
	// KindTrace holds encoded µ-op traces (the trace wire format,
	// self-validating via its own CRC and program hash) keyed by the
	// trace workload hash.
	KindTrace Kind = "trace"
)

// Kinds lists every valid kind, in stable order.
var Kinds = []Kind{KindResult, KindTrace}

// ValidKind reports whether k names a known artifact kind.
func ValidKind(k Kind) bool {
	return k == KindResult || k == KindTrace
}

// keyPattern is the only shape a key may have: 2–128 lowercase hex
// characters. Keys become path components, so the validation is the
// traversal defense for the disk tier and the HTTP endpoint alike —
// no separators, no dots, no uppercase aliasing on case-insensitive
// filesystems.
var keyPattern = regexp.MustCompile(`^[0-9a-f]{2,128}$`)

// ValidKey reports whether key is a well-formed content address.
func ValidKey(key string) bool { return keyPattern.MatchString(key) }

// ErrNotFound is returned by Get and Stat when no tier holds the key.
var ErrNotFound = errors.New("artifact: not found")

// MaxArtifactBytes bounds a single artifact payload (Put, peer fetch
// and the HTTP endpoint all enforce it): far above any legitimate
// report or trace, low enough that a hostile upload cannot balloon a
// store.
const MaxArtifactBytes = 256 << 20

// footer layout: payload || crc32(payload) LE || uint64 payload
// length LE || magic. Fixed-size so a reader can validate from the
// file tail without parsing the payload.
const footerSize = 4 + 8 + 4

var footerMagic = [4]byte{'E', 'O', 'A', 'F'}

// Options configures a Store. The zero value is a memory-only store
// with the default budget.
type Options struct {
	// Dir is the fabric root: kind k lives under <Dir>/<k>/. Empty
	// disables the disk tier.
	Dir string
	// MemBytes budgets the in-memory byte tier across all kinds
	// (0 = 64MB, negative disables the memory tier).
	MemBytes int64
	// DiskBytes budgets the disk tier per kind (0 = unbounded). When
	// a Put pushes a kind over budget, oldest-mtime artifacts are
	// evicted until it fits.
	DiskBytes int64
	// Peer, when non-nil, is the third lookup tier: a Get that misses
	// memory and disk fetches from the peer and persists the artifact
	// locally. Share pushes freshly created artifacts to it.
	Peer Peer
	// Logger receives tier events at Debug and quarantines at Warn
	// (nil = discard).
	Logger *slog.Logger
	// Tracer, when set, records an artifact.fetch span around every
	// peer fetch (the only tier slow enough to matter in a request
	// waterfall: memory and disk lookups are microseconds; a peer
	// fetch is a cross-process HTTP round trip).
	Tracer *obs.Tracer
}

// memEntry is one resident artifact in the LRU list.
type memEntry struct {
	kind Kind
	key  string
	data []byte
}

// tierCounters is one (tier, kind) cell of the stats matrix.
type tierCounters struct {
	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
	bytes     atomic.Int64
	entries   atomic.Int64
}

// kindState is the store's per-kind bookkeeping.
type kindState struct {
	dir         string // "" = no disk tier for this kind
	mem         tierCounters
	disk        tierCounters
	peer        tierCounters
	quarantined atomic.Uint64
	pushes      atomic.Uint64
	pushErrors  atomic.Uint64
}

// Store is the multi-tier artifact fabric. Create with Open; safe for
// concurrent use.
type Store struct {
	opts Options
	log  *slog.Logger
	kind map[Kind]*kindState

	// Memory tier: an LRU over raw payloads, budgeted in bytes.
	mu       sync.Mutex
	lru      *list.List // front = most recently used
	index    map[Kind]map[string]*list.Element
	memBytes int64

	// diskMu serializes eviction scans so concurrent Puts do not race
	// each other deleting files.
	diskMu sync.Mutex
}

// Open builds a store, creates the kind directories (plus their
// quarantine subdirectories), sweeps temp files orphaned by crashed
// writers, and takes the initial disk-usage inventory.
func Open(opts Options) (*Store, error) {
	if opts.MemBytes == 0 {
		opts.MemBytes = 64 << 20
	}
	log := opts.Logger
	if log == nil {
		log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := &Store{
		opts:  opts,
		log:   log,
		kind:  make(map[Kind]*kindState, len(Kinds)),
		lru:   list.New(),
		index: make(map[Kind]map[string]*list.Element, len(Kinds)),
	}
	for _, k := range Kinds {
		dir := ""
		if opts.Dir != "" {
			dir = filepath.Join(opts.Dir, string(k))
		}
		ks := &kindState{dir: dir}
		s.kind[k] = ks
		s.index[k] = make(map[string]*list.Element)
		if dir == "" {
			continue
		}
		if err := os.MkdirAll(filepath.Join(dir, "quarantine"), 0o755); err != nil {
			return nil, fmt.Errorf("artifact: %s dir: %w", k, err)
		}
		sweepOrphans(dir)
		bytes, entries := diskInventory(dir)
		ks.disk.bytes.Store(bytes)
		ks.disk.entries.Store(entries)
	}
	return s, nil
}

// Persistent reports whether the store has a disk tier — i.e. whether
// artifacts survive this process.
func (s *Store) Persistent() bool { return s.opts.Dir != "" }

// sweepOrphans removes temp files a crashed writer left behind. The
// age gate keeps the sweep from deleting a temp file a live process
// is about to rename — writes take milliseconds, not an hour.
func sweepOrphans(dir string) {
	matches, _ := filepath.Glob(filepath.Join(dir, "tmp-*"))
	for _, f := range matches {
		if fi, err := os.Stat(f); err == nil && time.Since(fi.ModTime()) > time.Hour {
			os.Remove(f)
		}
	}
}

// diskInventory sums the artifact files under a kind directory
// (quarantine and temp files excluded).
func diskInventory(dir string) (bytes, entries int64) {
	filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if d.Name() == "quarantine" && path != dir {
				return fs.SkipDir
			}
			return nil
		}
		if filepath.Ext(path) != ".art" {
			return nil
		}
		if fi, err := d.Info(); err == nil {
			bytes += fi.Size()
			entries++
		}
		return nil
	})
	return bytes, entries
}

// path returns an artifact's disk location:
// <kindDir>/<shard>/<key>.art with the key's first two hex characters
// as the shard.
func (ks *kindState) path(key string) string {
	return filepath.Join(ks.dir, key[:2], key+".art")
}

// Get returns the artifact's payload, consulting memory, then disk,
// then the peer (when configured). Artifacts found in lower tiers are
// promoted. ctx bounds only the peer fetch.
func (s *Store) Get(ctx context.Context, kind Kind, key string) ([]byte, error) {
	return s.get(ctx, kind, key, true)
}

// GetLocal is Get without the peer tier: memory and disk only. The
// HTTP artifact endpoint serves through it so a fleet of stores can
// never chase a missing key in a fetch cycle.
func (s *Store) GetLocal(kind Kind, key string) ([]byte, error) {
	return s.get(context.Background(), kind, key, false)
}

func (s *Store) get(ctx context.Context, kind Kind, key string, usePeer bool) ([]byte, error) {
	ks, err := s.state(kind, key)
	if err != nil {
		return nil, err
	}
	if b := s.memGet(kind, key); b != nil {
		ks.mem.hits.Add(1)
		return b, nil
	}
	ks.mem.misses.Add(1)
	if ks.dir != "" {
		if b := s.diskGet(ks, kind, key); b != nil {
			ks.disk.hits.Add(1)
			s.memPut(kind, key, b)
			return b, nil
		}
		ks.disk.misses.Add(1)
	}
	if usePeer && s.opts.Peer != nil {
		fctx, fsp := s.opts.Tracer.StartSpan(ctx, "artifact.fetch")
		fsp.SetAttr("kind", string(kind))
		b, err := s.opts.Peer.Fetch(fctx, kind, key)
		if err == nil && len(b) > 0 {
			fsp.SetAttr("hit", "true")
		} else {
			fsp.SetAttr("hit", "false")
			if err != nil && !errors.Is(err, ErrNotFound) {
				fsp.SetError(err)
			}
		}
		fsp.End()
		switch {
		case err == nil && len(b) > 0:
			ks.peer.hits.Add(1)
			s.log.Debug("artifact_peer_hit", "kind", string(kind), "key", key, "bytes", len(b))
			// Persist the fetched artifact so the next process (and
			// the local HTTP endpoint) can serve it without the peer.
			s.memPut(kind, key, b)
			if ks.dir != "" {
				s.diskPut(ks, kind, key, b)
			}
			return b, nil
		case err != nil && !errors.Is(err, ErrNotFound):
			ks.peer.misses.Add(1)
			s.log.Debug("artifact_peer_error", "kind", string(kind), "key", key, "error", err.Error())
		default:
			ks.peer.misses.Add(1)
		}
	}
	return nil, ErrNotFound
}

// Put stores an artifact in the memory tier and, when the kind has a
// directory, durably on disk. The returned error reports only disk
// failures — the memory tier cannot fail — so most callers treat Put
// as best-effort.
func (s *Store) Put(kind Kind, key string, data []byte) error {
	ks, err := s.state(kind, key)
	if err != nil {
		return err
	}
	if int64(len(data)) > MaxArtifactBytes {
		return fmt.Errorf("artifact: %d-byte payload exceeds the %d-byte bound", len(data), int64(MaxArtifactBytes))
	}
	s.memPut(kind, key, data)
	if ks.dir == "" {
		return nil
	}
	return s.diskPut(ks, kind, key, data)
}

// Share pushes an artifact to the peer tier, best-effort: a fleet
// where the coordinator is briefly unreachable keeps simulating.
// No-op without a peer.
func (s *Store) Share(ctx context.Context, kind Kind, key string, data []byte) {
	ks, err := s.state(kind, key)
	if err != nil || s.opts.Peer == nil {
		return
	}
	if err := s.opts.Peer.Push(ctx, kind, key, data); err != nil {
		ks.pushErrors.Add(1)
		s.log.Debug("artifact_push_failed", "kind", string(kind), "key", key, "error", err.Error())
		return
	}
	ks.pushes.Add(1)
	s.log.Debug("artifact_pushed", "kind", string(kind), "key", key, "bytes", len(data))
}

// Info describes where an artifact was found and how large it is.
type Info struct {
	// Size is the payload length in bytes.
	Size int64 `json:"size"`
	// Tier is "memory" or "disk" (Stat never consults the peer).
	Tier string `json:"tier"`
}

// Stat reports whether the store holds the key locally, without
// reading (or validating) the payload. A disk entry too small to even
// carry a footer reports as absent.
func (s *Store) Stat(kind Kind, key string) (Info, error) {
	ks, err := s.state(kind, key)
	if err != nil {
		return Info{}, err
	}
	s.mu.Lock()
	el, ok := s.index[kind][key]
	if ok {
		size := int64(len(el.Value.(*memEntry).data))
		s.mu.Unlock()
		return Info{Size: size, Tier: "memory"}, nil
	}
	s.mu.Unlock()
	if ks.dir != "" {
		if fi, err := os.Stat(ks.path(key)); err == nil && fi.Size() >= footerSize {
			return Info{Size: fi.Size() - footerSize, Tier: "disk"}, nil
		}
	}
	return Info{}, ErrNotFound
}

// state validates (kind, key) and resolves the kind's bookkeeping.
func (s *Store) state(kind Kind, key string) (*kindState, error) {
	if !ValidKind(kind) {
		return nil, fmt.Errorf("artifact: unknown kind %q", string(kind))
	}
	if !ValidKey(key) {
		return nil, fmt.Errorf("artifact: malformed key %q", key)
	}
	return s.kind[kind], nil
}

// ------------------------------------------------------------ memory

func (s *Store) memGet(kind Kind, key string) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.index[kind][key]
	if !ok {
		return nil
	}
	s.lru.MoveToFront(el)
	return el.Value.(*memEntry).data
}

func (s *Store) memPut(kind Kind, key string, data []byte) {
	budget := s.opts.MemBytes
	if budget < 0 || int64(len(data)) > budget {
		return
	}
	ks := s.kind[kind]
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.index[kind][key]; ok {
		s.lru.MoveToFront(el)
		e := el.Value.(*memEntry)
		if bytes.Equal(e.data, data) {
			// Same content (a result is content-addressed): just refresh.
			return
		}
		// A key whose content changed — a trace key names the workload,
		// not the length, so a re-recording puts a longer trace: the new
		// bytes replace the old.
		d := int64(len(data) - len(e.data))
		e.data = data
		s.memBytes += d
		ks.mem.bytes.Add(d)
	} else {
		s.index[kind][key] = s.lru.PushFront(&memEntry{kind: kind, key: key, data: data})
		s.memBytes += int64(len(data))
		ks.mem.bytes.Add(int64(len(data)))
		ks.mem.entries.Add(1)
	}
	for s.memBytes > budget {
		back := s.lru.Back()
		if back == nil {
			break
		}
		victim := back.Value.(*memEntry)
		s.lru.Remove(back)
		delete(s.index[victim.kind], victim.key)
		s.memBytes -= int64(len(victim.data))
		vks := s.kind[victim.kind]
		vks.mem.bytes.Add(-int64(len(victim.data)))
		vks.mem.entries.Add(-1)
		vks.mem.evictions.Add(1)
	}
}

// -------------------------------------------------------------- disk

// diskGet reads and validates an artifact file. A corrupt file —
// truncated, bad magic, length mismatch, CRC mismatch — is moved to
// quarantine and reported as a miss.
func (s *Store) diskGet(ks *kindState, kind Kind, key string) []byte {
	path := ks.path(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil
	}
	payload, err := checkFooter(raw)
	if err != nil {
		s.quarantine(ks, kind, key, path, err)
		return nil
	}
	return payload
}

// checkFooter validates a raw artifact file and returns its payload.
func checkFooter(raw []byte) ([]byte, error) {
	if len(raw) < footerSize {
		return nil, fmt.Errorf("artifact: %d-byte file shorter than the footer", len(raw))
	}
	foot := raw[len(raw)-footerSize:]
	if [4]byte(foot[12:16]) != footerMagic {
		return nil, errors.New("artifact: bad footer magic")
	}
	payload := raw[:len(raw)-footerSize]
	if n := binary.LittleEndian.Uint64(foot[4:12]); n != uint64(len(payload)) {
		return nil, fmt.Errorf("artifact: footer length %d, payload %d", n, len(payload))
	}
	if c := binary.LittleEndian.Uint32(foot[0:4]); c != crc32.ChecksumIEEE(payload) {
		return nil, errors.New("artifact: payload CRC mismatch")
	}
	return payload, nil
}

// appendFooter returns data with its integrity footer appended.
func appendFooter(data []byte) []byte {
	out := make([]byte, len(data)+footerSize)
	copy(out, data)
	foot := out[len(data):]
	binary.LittleEndian.PutUint32(foot[0:4], crc32.ChecksumIEEE(data))
	binary.LittleEndian.PutUint64(foot[4:12], uint64(len(data)))
	copy(foot[12:16], footerMagic[:])
	return out
}

// quarantine moves a corrupt artifact aside (never deletes it — the
// bytes are evidence) so the slot can be rewritten by a fresh
// simulation. Failure to move still unlinks the bad file: a corrupt
// entry must not wedge its key forever.
func (s *Store) quarantine(ks *kindState, kind Kind, key string, path string, cause error) {
	ks.quarantined.Add(1)
	dst := filepath.Join(ks.dir, "quarantine",
		fmt.Sprintf("%s.%d.corrupt", filepath.Base(path), time.Now().UnixNano()))
	if err := os.Rename(path, dst); err != nil {
		os.Remove(path)
		dst = "(removed)"
	}
	if fi, err := os.Stat(dst); err == nil {
		ks.disk.bytes.Add(-fi.Size())
		ks.disk.entries.Add(-1)
	}
	s.log.Warn("artifact_quarantined", "kind", string(kind), "key", key,
		"moved_to", dst, "cause", cause.Error())
}

// diskPut writes payload+footer under a temp name in the kind
// directory and renames it into place — readers never observe a
// partial artifact, and a crash mid-write leaves only a tmp-* file
// the next Open sweeps.
func (s *Store) diskPut(ks *kindState, kind Kind, key string, data []byte) error {
	path := ks.path(key)
	var oldSize int64
	if fi, err := os.Stat(path); err == nil {
		oldSize = fi.Size()
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("artifact: shard dir: %w", err)
	}
	tmp, err := os.CreateTemp(ks.dir, "tmp-*")
	if err != nil {
		return fmt.Errorf("artifact: temp file: %w", err)
	}
	name := tmp.Name()
	framed := appendFooter(data)
	if _, err := tmp.Write(framed); err != nil {
		tmp.Close()
		os.Remove(name)
		return fmt.Errorf("artifact: write: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(name)
		return fmt.Errorf("artifact: close: %w", err)
	}
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return fmt.Errorf("artifact: rename: %w", err)
	}
	ks.disk.bytes.Add(int64(len(framed)) - oldSize)
	if oldSize == 0 {
		ks.disk.entries.Add(1)
	}
	s.log.Debug("artifact_stored", "kind", string(kind), "key", key, "bytes", len(data))
	if b := s.opts.DiskBytes; b > 0 && ks.disk.bytes.Load() > b {
		s.evict(ks, kind, path)
	}
	return nil
}

// evict walks the kind directory and removes oldest-mtime artifacts
// until the kind fits its budget again. keep is the just-written file,
// exempt so a single oversized-but-legal artifact is not deleted the
// moment it lands. The walk doubles as a usage resync, so accounting
// drift (files deleted behind our back) self-heals on every eviction
// pass.
func (s *Store) evict(ks *kindState, kind Kind, keep string) {
	s.diskMu.Lock()
	defer s.diskMu.Unlock()
	type entry struct {
		path  string
		size  int64
		mtime time.Time
	}
	var files []entry
	var total int64
	filepath.WalkDir(ks.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if d.Name() == "quarantine" && path != ks.dir {
				return fs.SkipDir
			}
			return nil
		}
		if filepath.Ext(path) != ".art" {
			return nil
		}
		fi, err := d.Info()
		if err != nil {
			return nil
		}
		files = append(files, entry{path: path, size: fi.Size(), mtime: fi.ModTime()})
		total += fi.Size()
		return nil
	})
	sort.Slice(files, func(i, j int) bool { return files[i].mtime.Before(files[j].mtime) })
	entries := int64(len(files))
	for _, f := range files {
		if total <= s.opts.DiskBytes {
			break
		}
		if f.path == keep {
			continue
		}
		if os.Remove(f.path) == nil {
			total -= f.size
			entries--
			ks.disk.evictions.Add(1)
			s.log.Debug("artifact_evicted", "kind", string(kind), "path", f.path, "bytes", f.size)
		}
	}
	ks.disk.bytes.Store(total)
	ks.disk.entries.Store(entries)
}

// ------------------------------------------------------------- stats

// TierStats is one (tier, kind) cell of the stats matrix — the wire
// and metrics form of the store's accounting.
type TierStats struct {
	Tier string `json:"tier"` // "memory", "disk" or "peer"
	Kind string `json:"kind"`
	Hits uint64 `json:"hits"`
	// Misses counts lookups the tier could not answer. For the peer
	// tier this includes fetch errors.
	Misses uint64 `json:"misses"`
	// Evictions counts entries removed by the byte budget (memory and
	// disk tiers).
	Evictions uint64 `json:"evictions,omitempty"`
	// Quarantined counts corrupt disk entries moved aside (disk tier
	// only).
	Quarantined uint64 `json:"quarantined,omitempty"`
	// Pushes / PushErrors count Share calls (peer tier only).
	Pushes     uint64 `json:"pushes,omitempty"`
	PushErrors uint64 `json:"push_errors,omitempty"`
	// Bytes and Entries are the tier's current residency (zero for
	// the peer tier, whose contents are remote).
	Bytes   int64 `json:"bytes"`
	Entries int64 `json:"entries"`
}

// Stats snapshots the full (tier × kind) accounting matrix in stable
// order. Tiers a kind does not have (no disk dir, no peer) are
// omitted.
func (s *Store) Stats() []TierStats {
	var out []TierStats
	for _, k := range Kinds {
		ks := s.kind[k]
		out = append(out, TierStats{
			Tier: "memory", Kind: string(k),
			Hits: ks.mem.hits.Load(), Misses: ks.mem.misses.Load(),
			Evictions: ks.mem.evictions.Load(),
			Bytes:     ks.mem.bytes.Load(), Entries: ks.mem.entries.Load(),
		})
		if ks.dir != "" {
			out = append(out, TierStats{
				Tier: "disk", Kind: string(k),
				Hits: ks.disk.hits.Load(), Misses: ks.disk.misses.Load(),
				Evictions:   ks.disk.evictions.Load(),
				Quarantined: ks.quarantined.Load(),
				Bytes:       ks.disk.bytes.Load(), Entries: ks.disk.entries.Load(),
			})
		}
		if s.opts.Peer != nil {
			out = append(out, TierStats{
				Tier: "peer", Kind: string(k),
				Hits: ks.peer.hits.Load(), Misses: ks.peer.misses.Load(),
				Pushes: ks.pushes.Load(), PushErrors: ks.pushErrors.Load(),
			})
		}
	}
	return out
}

// ReadAllLimited reads from r up to limit bytes, failing when the
// stream exceeds it — shared by the peer client and the HTTP upload
// handler so both enforce the same payload bound.
func ReadAllLimited(r io.Reader, limit int64) ([]byte, error) {
	b, err := io.ReadAll(io.LimitReader(r, limit+1))
	if err != nil {
		return nil, err
	}
	if int64(len(b)) > limit {
		return nil, fmt.Errorf("artifact: payload exceeds the %d-byte bound", limit)
	}
	return b, nil
}
