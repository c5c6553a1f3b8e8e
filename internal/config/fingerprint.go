package config

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// fingerprintVersion is folded into every fingerprint. Bump it when
// the meaning of a Config field changes, so externally stored
// fingerprints (result caches keyed by them) are invalidated instead
// of silently colliding across semantics.
const fingerprintVersion = 1

// Fingerprint is the canonical content hash of a configuration:
// SHA-256 over the deterministic JSON encoding of its normalized form
// with the display Name cleared, rendered as lowercase hex. Two
// configs with identical machine semantics fingerprint identically no
// matter what they are called — including a raw config that left
// LEWidth to the commit-width default versus its twin that had it
// filled in — so the fingerprint is the cache identity of a
// simulation (the simulator is deterministic in the config's semantic
// fields).
func (c Config) Fingerprint() string {
	c = c.Normalized()
	c.Name = "" // a label, not machine semantics
	payload := struct {
		Version int    `json:"version"`
		Config  Config `json:"config"`
	}{fingerprintVersion, c}
	// encoding/json writes struct fields in declaration order and
	// Config is plain data (no maps, no pointers), so the encoding is
	// deterministic.
	b, err := json.Marshal(payload)
	if err != nil {
		// Config contains only marshalable scalar fields; reaching this
		// is a programming error, not an input error.
		panic(fmt.Sprintf("config: cannot marshal config: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// Label returns the display name, or a fingerprint-derived synthetic
// label ("custom-<12 hex digits>") for anonymous configurations, so
// error messages and reports never show an empty config name and two
// distinct anonymous configs never collide on "".
func (c Config) Label() string {
	if c.Name != "" {
		return c.Name
	}
	return "custom-" + c.Fingerprint()[:12]
}
