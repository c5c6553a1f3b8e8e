package simsvc

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"strconv"
	"sync"
	"sync/atomic"
	"unicode/utf8"

	"eole"
)

// Request describes one simulation: a machine configuration, a
// workload (short or full name), the run lengths, and optionally a
// sampling spec. Two Requests with equal content always have the
// same Key, so results are shareable across callers.
type Request struct {
	Config   eole.Config `json:"config"`
	Workload string      `json:"workload"`
	Warmup   uint64      `json:"warmup"`
	Measure  uint64      `json:"measure"`
	// Sampling, when non-nil, runs the simulation sampled (see
	// eole.WithSampling): warmup becomes functional warming, measure
	// the total detailed budget across the spec's windows, and the
	// report carries a confidence interval. The spec is part of the
	// cache identity — a sampled result never answers a full-run
	// request or vice versa, and two different specs never share an
	// entry.
	Sampling *eole.SamplingSpec `json:"sampling,omitempty"`
	// Relayed says the requester keeps the result tier for this cell
	// itself — a cluster coordinator probes its own store before it
	// dispatches and stores what comes back — so the service answers
	// from memory and disk alone: the result is neither looked up on
	// the artifact peer nor pushed to it. Traces still travel through
	// the peer, and a simulation several requests share follows the
	// first one's. Not part of the Key: it changes where a result is
	// looked for, never what it is.
	Relayed bool `json:"relayed,omitempty"`
}

// label names the request's configuration for error messages and
// logs: the display name, or the fingerprint-derived synthetic label
// for anonymous custom configs (never "").
func (r Request) label() string { return r.Config.Label() }

// SchemaVersion is folded into every Key's digest. Bump it whenever
// the simulator's observable behavior or the Report schema changes, so
// a reused artifact directory from an older build is invalidated
// instead of silently serving stale results.
//
// Version history: 1 hashed the full config JSON; 2 keys on
// Config.Fingerprint(); 3 adds the sampling spec to the canonical
// form (and the Report schema gains the sampled fields).
const SchemaVersion = 3

// Key is the content address of a Request: the canonical identity of
// the cell, as a comparable value. Two requests with equal keys
// simulate identically, and the simulator is deterministic, so equal
// keys imply identical Reports. In-process, keys are compared as they
// are (the result map, in-flight coalescing, a coordinator's dedup);
// Digest names one outside the process (artifact file names, entity
// tags, logs).
type Key struct {
	// Fingerprint is the config's canonical Config.Fingerprint(): the
	// display Name is not part of it.
	Fingerprint string
	// Workload is the short benchmark name, or the name as given when
	// it resolves to none (see shortName for invalid UTF-8).
	Workload string
	Warmup   uint64
	// Measure is the detailed budget of a full run, and 0 for a
	// sampled run whose schedule resolves (the schedule captures it).
	Measure uint64
	// Sampling is the sampling schedule as canonical JSON: the resolved
	// plan, or the raw spec when it does not resolve; "" for a full run.
	Sampling string
}

// Digest returns the key's persistent name: a SHA-256 over its
// canonical form, the JSON object
//
//	{"version":…,"fingerprint":…,"workload":…,"warmup":…,"measure":…,"sampling":…}
//
// exactly as encoding/json writes it (sampling null for a full run).
// Digests are persisted (artifact file names, entity tags), so the
// bytes hashed must never change without a SchemaVersion bump. Each
// call counts once in HashCounts.
func (k Key) Digest() [sha256.Size]byte {
	hashCounts.digests.Add(1)
	sampling := k.Sampling
	if sampling == "" {
		sampling = "null"
	}
	var buf [256]byte
	b := append(buf[:0], `{"version":`...)
	b = strconv.AppendInt(b, SchemaVersion, 10)
	b = AppendJSONString(append(b, `,"fingerprint":`...), k.Fingerprint)
	b = AppendJSONString(append(b, `,"workload":`...), k.Workload)
	b = strconv.AppendUint(append(b, `,"warmup":`...), k.Warmup, 10)
	b = strconv.AppendUint(append(b, `,"measure":`...), k.Measure, 10)
	b = append(append(append(b, `,"sampling":`...), sampling...), '}')
	return sha256.Sum256(b)
}

// String renders the key's Digest as lowercase hex: the artifact file
// name of its result.
func (k Key) String() string {
	d := k.Digest()
	return hex.EncodeToString(d[:])
}

// LogValue makes a key a lazy log attribute: it is digested only when
// a record carrying it is emitted.
func (k Key) LogValue() slog.Value { return slog.StringValue(k.String()) }

// KeyOf computes the content address of a request. The config enters
// via Config.Fingerprint() — a canonical hash that excludes the
// display Name — so identically-parameterized configs under different
// names (or no name at all) share one cache entry and one in-flight
// simulation. The workload name is canonicalized (short name) so
// "mcf" and "429.mcf" share a key; unresolvable workload names still
// produce a stable key and fail later at run time with a useful
// error.
func KeyOf(req Request) Key {
	return keyOf(&req, fingerprint(req.Config), shortName(req.Workload))
}

// Keys returns the content address of every request, doing per-config
// and per-workload work once each for the config-major lists Cross
// builds: a run of equal configs is fingerprinted once, and a
// workload name is resolved in the first run and reused by every later
// cell that names it in the same column. Any list is keyed correctly,
// in whatever order and whichever fields were rewritten after Cross
// built it. A caller that needs the keys more than once (entity tag,
// admission, submission) computes them here and passes them on.
func Keys(reqs []Request) []Key {
	keys := make([]Key, len(reqs))
	var fp string
	start, width := 0, 0 // the current run of equal configs starts at start; the first is width long
	for i := range reqs {
		req := &reqs[i]
		if i == 0 || req.Config != reqs[i-1].Config {
			fp = fingerprint(req.Config)
			if start == 0 {
				width = i
			}
			start = i
		}
		var workload string
		if c := i - start; c < width && reqs[c].Workload == req.Workload {
			workload = keys[c].Workload
		} else {
			workload = shortName(req.Workload)
		}
		keys[i] = keyOf(req, fp, workload)
	}
	return keys
}

// hashCounts tallies the two hashing steps process-wide, so a test can
// pin how often a request path pays for them (see HashCounts).
var hashCounts struct{ digests, fingerprints atomic.Uint64 }

// HashCounts returns how many key digests (Key.Digest, and so
// Key.String) and config fingerprints this process has taken so far.
// Building a key digests nothing; a named config's fingerprint is read
// from a table (see fingerprint) and still counts as one taken.
func HashCounts() (digests, fingerprints uint64) {
	return hashCounts.digests.Load(), hashCounts.fingerprints.Load()
}

// fingerprint returns cfg.Fingerprint(), from namedFingerprints when
// cfg is exactly a named configuration.
func fingerprint(cfg eole.Config) string {
	hashCounts.fingerprints.Add(1)
	if fp, ok := namedFingerprints()[cfg]; ok {
		return fp
	}
	return cfg.Fingerprint()
}

// namedFingerprints holds the fingerprint of every named configuration,
// keyed by the whole Config value (Name included): a renamed or bent
// config misses and is hashed. It holds the named configs alone, so it
// never grows.
var namedFingerprints = sync.OnceValue(func() map[eole.Config]string {
	m := make(map[eole.Config]string)
	for _, name := range eole.ConfigNames() {
		cfg, _ := eole.NamedConfig(name)
		m[cfg] = cfg.Fingerprint()
	}
	return m
})

// shortName canonicalizes a workload name to its short form. A name
// that resolves to no workload is kept as given, up to what its digest
// can tell apart: encoding/json writes every byte of invalid UTF-8 as
// \ufffd, so each such byte becomes 0xff and names that differ only
// there share a key as they share a digest.
func shortName(name string) string {
	if w, err := eole.WorkloadByName(name); err == nil {
		return w.Short
	}
	if utf8.ValidString(name) {
		return name
	}
	b := make([]byte, 0, len(name))
	for i := 0; i < len(name); {
		r, n := utf8.DecodeRuneInString(name[i:])
		if r == utf8.RuneError && n == 1 {
			b = append(b, 0xff)
		} else {
			b = append(b, name[i:i+n]...)
		}
		i += n
	}
	return string(b)
}

// keyOf builds req's key from its config's fingerprint and its
// workload's short name.
func keyOf(req *Request, fp, workload string) Key {
	k := Key{Fingerprint: fp, Workload: workload, Warmup: req.Warmup, Measure: req.Measure}
	if req.Sampling != nil {
		// Key the resolved schedule, not the raw spec: a spec that
		// spells out a default (per-window measure, detail warm-up)
		// simulates identically to one that leaves it zero, so the
		// two must share a cache entry — mirroring how configs are
		// Normalized before fingerprinting. The resolved plan also
		// captures everything Measure contributes to a sampled run,
		// so the raw budget is dropped from the key. Unresolvable
		// specs are keyed raw; they fail at run time with a real
		// error, under a stable key.
		var v any = req.Sampling
		if p, err := req.Sampling.Plan(req.Measure); err == nil {
			k.Measure, v = 0, p
		}
		b, err := json.Marshal(v)
		if err != nil {
			// Specs and plans are plain scalar structs; reaching this
			// is a programming error, not an input error.
			panic(fmt.Sprintf("simsvc: cannot marshal sampling schedule: %v", err))
		}
		k.Sampling = string(b)
	}
	return k
}
