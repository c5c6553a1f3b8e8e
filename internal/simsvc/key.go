package simsvc

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"eole"
)

// Request describes one simulation: a machine configuration, a
// workload (short or full name), the run lengths, and optionally a
// sampling spec. Two Requests with equal content always hash to the
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

// schemaVersion is folded into every Key. Bump it whenever the
// simulator's observable behavior or the Report schema changes, so a
// reused artifact directory from an older build is
// invalidated instead of silently serving stale results.
//
// Version history: 1 hashed the full config JSON; 2 keys on
// Config.Fingerprint(); 3 adds the sampling spec to the canonical
// form (and the Report schema gains the sampled fields).
const schemaVersion = 3

// Key is the content address of a Request: a SHA-256 over the
// config's canonical Fingerprint, the workload, and the run lengths,
// plus schemaVersion. The simulator is deterministic, so equal keys
// imply identical Reports.
type Key [sha256.Size]byte

// String renders the key as lowercase hex (used as the on-disk cache
// filename).
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// KeyOf computes the content address of a request. The config enters
// via Config.Fingerprint() — a canonical hash that excludes the
// display Name — so identically-parameterized configs under different
// names (or no name at all) share one cache entry and one in-flight
// simulation. The workload name is canonicalized (short name) so
// "mcf" and "429.mcf" share a key; unresolvable workload names still
// produce a stable key and fail later at run time with a useful
// error.
func KeyOf(req Request) Key { return keyOf(&req, fingerprint(req.Config)) }

// Keys returns the content address of every request, fingerprinting
// each run of equal configs once: the config-major lists Cross and
// FromGrid build cost one Config.Fingerprint() per config, not one per
// cell. A caller that needs the keys more than once (entity tag,
// admission, submission) computes them here and passes them on.
func Keys(reqs []Request) []Key {
	keys := make([]Key, len(reqs))
	var fp string
	for i := range reqs {
		if i == 0 || reqs[i].Config != reqs[i-1].Config {
			fp = fingerprint(reqs[i].Config)
		}
		keys[i] = keyOf(&reqs[i], fp)
	}
	return keys
}

// hashCounts tallies the two hashing steps process-wide, so a test can
// pin how often a request path pays for them (see HashCounts).
var hashCounts struct{ keys, fingerprints atomic.Uint64 }

// HashCounts returns how many request keys and config fingerprints
// this process has taken so far. A named config's fingerprint is read
// from a table (see fingerprint) and still counts as one taken.
func HashCounts() (keys, fingerprints uint64) {
	return hashCounts.keys.Load(), hashCounts.fingerprints.Load()
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

// keyOf hashes the canonical form of req, given its config's
// fingerprint. The form is the JSON object
//
//	{"version":…,"fingerprint":…,"workload":…,"warmup":…,"measure":…,"sampling":…}
//
// exactly as encoding/json writes it: keys are persisted (artifact
// file names, entity tags), so the bytes hashed must never change
// without a schemaVersion bump. It is assembled by hand because this
// runs once per cell of every request, cached or not; only a sampling
// schedule, when present, still goes through the encoder.
func keyOf(req *Request, fp string) Key {
	hashCounts.keys.Add(1)
	workload, measure := req.Workload, req.Measure
	if w, err := eole.WorkloadByName(workload); err == nil {
		workload = w.Short
	}
	sampling := []byte("null")
	if req.Sampling != nil {
		// Hash the resolved schedule, not the raw spec: a spec that
		// spells out a default (per-window measure, detail warm-up)
		// simulates identically to one that leaves it zero, so the
		// two must share a cache entry — mirroring how configs are
		// Normalized before fingerprinting. The resolved plan also
		// captures everything Measure contributes to a sampled run,
		// so the raw budget is dropped from the canonical form.
		// Unresolvable specs hash raw; they fail at run time with a
		// real error, under a stable key.
		var v any = req.Sampling
		if p, err := req.Sampling.Plan(req.Measure); err == nil {
			measure, v = 0, p
		}
		var err error
		if sampling, err = json.Marshal(v); err != nil {
			// Specs and plans are plain scalar structs; reaching this
			// is a programming error, not an input error.
			panic(fmt.Sprintf("simsvc: cannot marshal sampling schedule: %v", err))
		}
	}
	var buf [256]byte
	b := append(buf[:0], `{"version":`...)
	b = strconv.AppendInt(b, schemaVersion, 10)
	b = append(append(append(b, `,"fingerprint":"`...), fp...), '"') // lowercase hex: nothing to escape
	b = AppendJSONString(append(b, `,"workload":`...), workload)
	b = strconv.AppendUint(append(b, `,"warmup":`...), req.Warmup, 10)
	b = strconv.AppendUint(append(b, `,"measure":`...), measure, 10)
	b = append(append(append(b, `,"sampling":`...), sampling...), '}')
	return sha256.Sum256(b)
}
