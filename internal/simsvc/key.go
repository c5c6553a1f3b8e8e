package simsvc

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

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
}

// label names the request's configuration for error messages and
// logs: the display name, or the fingerprint-derived synthetic label
// for anonymous custom configs (never "").
func (r Request) label() string { return r.Config.Label() }

// schemaVersion is folded into every Key. Bump it whenever the
// simulator's observable behavior or the Report schema changes, so a
// reused spill directory (Options.ArtifactDir) from an older build is
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
func KeyOf(req Request) Key {
	canonical := struct {
		Version     int    `json:"version"`
		Fingerprint string `json:"fingerprint"`
		Workload    string `json:"workload"`
		Warmup      uint64 `json:"warmup"`
		Measure     uint64 `json:"measure"`
		Sampling    any    `json:"sampling"`
	}{schemaVersion, req.Config.Fingerprint(), req.Workload, req.Warmup, req.Measure, nil}
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
		if p, err := req.Sampling.Plan(req.Measure); err == nil {
			canonical.Measure = 0
			canonical.Sampling = p
		} else {
			canonical.Sampling = req.Sampling
		}
	}
	if w, err := eole.WorkloadByName(req.Workload); err == nil {
		canonical.Workload = w.Short
	}
	b, err := json.Marshal(canonical)
	if err != nil {
		// The canonical struct contains only marshalable scalar fields;
		// reaching this is a programming error, not an input error.
		panic(fmt.Sprintf("simsvc: cannot marshal request: %v", err))
	}
	return sha256.Sum256(b)
}
