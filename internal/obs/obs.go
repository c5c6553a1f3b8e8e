// Package obs is the observability layer shared by every serving
// surface of the repository: a dependency-free Prometheus
// text-exposition writer, structured HTTP request logging with
// per-request IDs, request tracing, and Go runtime gauges.
//
// Metrics keep no state of their own: each scrape builds an
// Exposition from the snapshots the service already keeps (its
// counter snapshot, queue, artifact store and worker table, and a
// per-route request record in eoled) and writes it in deterministic
// order, so every value has one owner and is read once per scrape.
// Histogram is the exception, for distributions no snapshot holds.
// Request IDs are generated (or adopted from the
// X-Eole-Request-Id header) by the AccessLog middleware, stored in
// the request context, echoed on the response, and propagated to
// cluster dispatches — so one sweep can be traced coordinator →
// worker → cache across structured logs.
package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"regexp"
)

// RequestIDHeader carries a request's ID across processes: the
// AccessLog middleware echoes it on every response and adopts a valid
// incoming value, and the cluster coordinator stamps it on every
// dispatch, so a sweep's ID shows up in the worker's logs too.
const RequestIDHeader = "X-Eole-Request-Id"

// validRequestID bounds adopted IDs: header values are remote input,
// and an unconstrained one would let a client inject structure (or
// megabytes) into every log line it touches.
var validRequestID = regexp.MustCompile(`^[A-Za-z0-9._-]{1,64}$`)

// ctxKey is the private context key for request IDs.
type ctxKey struct{}

// WithRequestID returns a context carrying the request ID.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, ctxKey{}, id)
}

// RequestID returns the context's request ID ("" when none is set).
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(ctxKey{}).(string)
	return id
}

// NewRequestID returns a fresh 16-hex-character request ID.
func NewRequestID() string {
	var b [8]byte
	// crypto/rand.Read does not fail on supported platforms; if it
	// ever does, a zero ID is still a valid (if non-unique) ID.
	_, _ = rand.Read(b[:])
	return hex.EncodeToString(b[:])
}

// ValidRequestID reports whether an externally supplied request ID is
// safe to adopt into logs and headers.
func ValidRequestID(id string) bool { return validRequestID.MatchString(id) }
