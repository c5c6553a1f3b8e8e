package simsvc

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"unicode/utf8"

	"eole"
)

// Encoded is a report's canonical JSON — json.Marshal(report), the
// exact payload the artifact store holds — produced once per simulated
// cell and spliced verbatim into every reply that carries the report.
// "config" is the first member of a report, so the bytes split into
// the label and a label-free tail: a reply for any display name is the
// requested label in front of the shared tail, with no decode and no
// re-encode. The bytes are shared with the artifact store's memory
// tier and with every concurrent reader; they must not be modified.
type Encoded struct {
	b    []byte
	tail int // b[tail:] follows the "config" value: `,"benchmark":…}`
}

// configMember opens every canonical report.
var configMember = []byte(`{"config":`)

// encodeReport marshals a fresh report into its canonical form.
func encodeReport(r *eole.Report) (Encoded, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return Encoded{}, err
	}
	e, ok := parseEncoded(b)
	if !ok {
		return Encoded{}, errors.New(`report does not encode "config" first`)
	}
	return e, nil
}

// parseEncoded locates the label in stored report bytes. It reports
// false for bytes that do not open with a "config" string member —
// payloads this build did not write, which the cache treats as a miss.
func parseEncoded(b []byte) (Encoded, bool) {
	if !bytes.HasPrefix(b, configMember) || len(b) <= len(configMember) || b[len(configMember)] != '"' {
		return Encoded{}, false
	}
	for i := len(configMember) + 1; i < len(b); i++ {
		switch b[i] {
		case '\\':
			i++
		case '"':
			return Encoded{b: b, tail: i + 1}, true
		}
	}
	return Encoded{}, false
}

// CanonicalReport is the gate for report bytes this process did not
// encode — an artifact upload, a worker's relayed cell: b must be a
// simulation report in exactly the encoding this build writes for it.
// Accepted bytes are spliced into replies and served to peers
// verbatim, so nothing else may pass. The returned Encoded shares b.
func CanonicalReport(b []byte) (Encoded, error) {
	r, err := canonicalReport(b)
	return r.enc, err
}

// canonicalReport is CanonicalReport returning the cached cell: the
// decoded report with its encoding.
func canonicalReport(b []byte) (result, error) {
	// Report has a custom unmarshaler (for the raw stats block), so
	// strict field checking is unavailable; insist on the fields any
	// genuine simulation result carries instead.
	var rep eole.Report
	if err := json.Unmarshal(b, &rep); err != nil {
		return result{}, fmt.Errorf("not a report: %w", err)
	}
	if rep.Config == "" || rep.Benchmark == "" || rep.Cycles == 0 {
		return result{}, errors.New("not a simulation report")
	}
	canon, err := json.Marshal(&rep)
	if err != nil || !bytes.Equal(canon, b) {
		return result{}, errors.New("not the canonical encoding of its report")
	}
	if e, ok := parseEncoded(b); ok {
		return result{report: &rep, enc: e}, nil
	}
	return result{}, errors.New(`not a report that encodes "config" first`)
}

// Bytes returns the canonical JSON under the label the report was
// simulated with (nil for the zero Encoded).
func (e Encoded) Bytes() []byte { return e.b }

// MarshalJSON writes the report under the label it was simulated
// with (AppendLabeled relabels); the zero Encoded is null.
func (e Encoded) MarshalJSON() ([]byte, error) {
	if e.b == nil {
		return []byte("null"), nil
	}
	return e.b, nil
}

// UnmarshalJSON keeps a received report as the bytes it arrived in,
// which is how a job stream's consumer takes a cell frame's "report"
// member: nothing is decoded. Only the label is located; the rest is
// unverified until CanonicalReport has seen it.
func (e *Encoded) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		return nil
	}
	enc, ok := parseEncoded(bytes.Clone(b))
	if !ok {
		return errors.New(`report does not open with a "config" string`)
	}
	*e = enc
	return nil
}

// AppendLabeled appends the report with label as its config name:
// byte for byte what json.Marshal yields for the report relabeled.
func (e Encoded) AppendLabeled(dst []byte, label string) []byte {
	dst = append(dst, configMember...)
	dst = AppendJSONString(dst, label)
	return append(dst, e.b[e.tail:]...)
}

// AppendJSONString appends s as encoding/json quotes it (HTML-safe
// escapes, U+2028/U+2029, invalid UTF-8 replaced), so hand-stitched
// envelopes stay byte-compatible with encoded ones. Printable ASCII
// that needs no escape — every name the simulator itself produces —
// is copied without allocating.
func AppendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, err := json.Marshal(s)
			if err != nil {
				panic("simsvc: cannot marshal a string: " + err.Error())
			}
			return append(dst, q...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}
