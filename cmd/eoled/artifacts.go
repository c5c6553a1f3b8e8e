package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"eole/internal/artifact"
	"eole/internal/simsvc"
	"eole/internal/trace"
	"eole/internal/workload"
)

// The artifact endpoint exposes the node's local artifact store over
// HTTP:
//
//	GET/HEAD /v1/artifacts/{kind}/{key}  serve one artifact payload
//	PUT      /v1/artifacts/{kind}/{key}  store one validated artifact
//
// Peers (artifact.HTTPPeer) speak exactly this protocol, which is how
// the cluster distributes traces: a worker records once, pushes the
// trace here (its -artifact-peer is the coordinator), and every other
// worker fetches it instead of re-interpreting the workload. Results
// of cells a coordinator dispatched do not come this way: they are the
// body of the dispatch's reply, and the coordinator stores them itself.
//
// GET serves only memory and disk (Store.GetLocal, never the peer
// tier), so a fleet of stores cannot chase a missing key around a
// fetch cycle. A result's key is its content address and doubles as a
// strong ETag: If-None-Match answers 304 without reading the payload.
// A trace key names no length — a longer recording of the workload
// replaces a shorter one under it — so a trace's ETag is a digest of
// the bytes served.
//
// PUT validates before storing — a trace must decode, match a known
// workload and hash to exactly the key it is stored under; a result
// must be a well-formed report — so a confused or hostile client
// cannot poison the cache of a node that accepts uploads.

// handleArtifactGet serves GET and HEAD (Go's mux routes HEAD to the
// GET pattern; the handler just suppresses the body).
func (s *server) handleArtifactGet(w http.ResponseWriter, r *http.Request) {
	store := s.svc.Artifacts()
	kind, key := artifact.Kind(r.PathValue("kind")), r.PathValue("key")
	if !artifact.ValidKind(kind) || !artifact.ValidKey(key) {
		writeError(w, http.StatusBadRequest, fmt.Errorf("malformed artifact reference %q/%q", r.PathValue("kind"), r.PathValue("key")))
		return
	}
	etag := `"` + key + `"`
	if kind != artifact.KindTrace && s.answerNotModified(w, r, etag) {
		return
	}
	b, err := store.GetLocal(kind, key)
	if err != nil {
		if errors.Is(err, artifact.ErrNotFound) {
			writeError(w, http.StatusNotFound, fmt.Errorf("artifact %s/%s not held here", kind, key))
			return
		}
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if kind == artifact.KindTrace {
		sum := sha256.Sum256(b)
		etag = `"t-` + hex.EncodeToString(sum[:16]) + `"`
		if s.answerNotModified(w, r, etag) {
			return
		}
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(b)))
	w.Header().Set("ETag", etag)
	if r.Method == http.MethodHead {
		return
	}
	w.Write(b)
}

// handleArtifactPut accepts one artifact upload after validating that
// the payload really is what the key claims.
func (s *server) handleArtifactPut(w http.ResponseWriter, r *http.Request) {
	store := s.svc.Artifacts()
	kind, key := artifact.Kind(r.PathValue("kind")), r.PathValue("key")
	if !artifact.ValidKind(kind) || !artifact.ValidKey(key) {
		writeError(w, http.StatusBadRequest, fmt.Errorf("malformed artifact reference %q/%q", r.PathValue("kind"), r.PathValue("key")))
		return
	}
	b, err := artifact.ReadAllLimited(http.MaxBytesReader(w, r.Body, artifact.MaxArtifactBytes), artifact.MaxArtifactBytes)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("artifact body: %w", err))
		return
	}
	if err := validateArtifact(kind, key, b); err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if err := store.Put(kind, key, b); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// validateArtifact rejects uploads whose payload does not check out
// against the key: the upload path is how cluster peers share work,
// and an accepted artifact is replayed or returned verbatim later, so
// nothing unverifiable may enter the store.
func validateArtifact(kind artifact.Kind, key string, b []byte) error {
	switch kind {
	case artifact.KindTrace:
		t, err := trace.Parse(b)
		if err != nil {
			return fmt.Errorf("trace artifact does not decode: %w", err)
		}
		wl, err := workload.ByName(t.Workload)
		if err != nil {
			return fmt.Errorf("trace artifact names unknown workload %q", t.Workload)
		}
		if want := simsvc.TraceKeyOf(wl); want != key {
			return fmt.Errorf("trace artifact for %q belongs at key %s, not %s", t.Workload, want, key)
		}
		if _, err := t.SourceFor(wl); err != nil {
			return fmt.Errorf("trace artifact does not match this build's %q program: %w", t.Workload, err)
		}
	case artifact.KindResult:
		// The gate a coordinator's relay passes too: stored results are
		// spliced into replies verbatim, so only the one canonical
		// encoding of a simulation report may enter the store.
		if _, err := simsvc.CanonicalReport(b); err != nil {
			return fmt.Errorf("result artifact is %w", err)
		}
	default:
		return fmt.Errorf("unknown artifact kind %q", string(kind))
	}
	return nil
}

// answerNotModified answers 304 when the request's If-None-Match
// matches etag, counting the short-circuit on the route pattern's path,
// and reports whether it did.
func (s *server) answerNotModified(w http.ResponseWriter, r *http.Request, etag string) bool {
	if !matchETag(r.Header.Get("If-None-Match"), etag) {
		return false
	}
	w.Header().Set("ETag", etag)
	parts := strings.Fields(r.Pattern)
	s.routes[parts[len(parts)-1]].notModified.Add(1)
	w.WriteHeader(http.StatusNotModified)
	return true
}

// matchETag implements the If-None-Match comparison: a "*" matches
// anything, otherwise the header is a comma-separated list of entity
// tags compared weakly (a W/ prefix is ignored — the tags here encode
// content identity, so weak and strong comparison coincide).
func matchETag(header, etag string) bool {
	header = strings.TrimSpace(header)
	if header == "" {
		return false
	}
	if header == "*" {
		return true
	}
	etag = strings.TrimPrefix(etag, "W/")
	for _, cand := range strings.Split(header, ",") {
		cand = strings.TrimPrefix(strings.TrimSpace(cand), "W/")
		if cand == etag {
			return true
		}
	}
	return false
}

// resultETag is the entity tag of one /v1/simulate response: derived
// from the request's content address plus the response label (the
// label is presentation, not part of the simulation key, so two
// configs that simulate identically but display differently must not
// share a tag). The simulator is deterministic, so equal tags imply
// byte-equal reports — a client's cached 200 can be revalidated with
// If-None-Match without simulating anything.
func resultETag(key simsvc.Key, label string) string {
	h := sha256.Sum256([]byte("eole-etag\x00" + key.String() + "\x00" + label))
	return `"r-` + hex.EncodeToString(h[:8]) + `"`
}

// sweepETag is the entity tag of a /v1/sweep response. A sweep is
// always the grid Cross(configs, workloads) with one shared run length
// and sampling schedule (resolveGrid), so the grid fixes every cell
// and its order, and the tag digests the grid rather than its cells:
// each config's fingerprint and label once, each workload as requested
// (the reply echoes that spelling) once, and the shared part of the
// key once. keys and labels are the cells' (simsvc.Keys, cellLabels),
// config-major over workloads. Strings are length-prefixed, so no
// label or workload name can shift bytes from one field to the next.
func sweepETag(keys []simsvc.Key, labels, workloads []string) string {
	nw := max(len(workloads), 1)
	b := append(make([]byte, 0, 1024), "eole-sweep-etag"...)
	b = binary.AppendUvarint(b, simsvc.SchemaVersion)
	b = binary.AppendUvarint(b, uint64(len(keys)/nw))
	for i := 0; i < len(keys); i += nw {
		b = appendField(appendField(b, keys[i].Fingerprint), labels[i])
	}
	b = binary.AppendUvarint(b, uint64(len(workloads)))
	for _, wl := range workloads {
		b = appendField(b, wl)
	}
	if len(keys) > 0 {
		b = binary.AppendUvarint(binary.AppendUvarint(b, keys[0].Warmup), keys[0].Measure)
		b = appendField(b, keys[0].Sampling)
	}
	sum := sha256.Sum256(b)
	return `"s-` + hex.EncodeToString(sum[:8]) + `"`
}

// appendField appends s, prefixed with its length.
func appendField(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}
