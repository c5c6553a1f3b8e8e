package main

import (
	"cmp"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"os"
	"slices"
	"time"
)

// span is one timed interval: name, start, end, and the span that
// caused it; the spans of one op share a trace ID. The JSON form is
// the one eoled serves on /v1/debug/traces/{id}, so the harness's own
// spans and the servers' merge into one tree.
type span struct {
	TraceID     string            `json:"trace_id"`
	SpanID      string            `json:"span_id"`
	ParentID    string            `json:"parent_id,omitempty"`
	Name        string            `json:"name"`
	Service     string            `json:"service,omitempty"`
	StartUnixNS int64             `json:"start_unix_ns"`
	EndUnixNS   int64             `json:"end_unix_ns"`
	Attrs       map[string]string `json:"attrs,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndUnixNS - s.StartUnixNS) }

func newID(nbytes int) string {
	b := make([]byte, nbytes)
	rand.Read(b) // never fails (crypto/rand contract since Go 1.24)
	return hex.EncodeToString(b)
}

// startSpan opens a root span of the harness's own with a fresh trace
// ID; end stamps it.
func startSpan(name string) (s *span, end func()) {
	s = &span{TraceID: newID(16), SpanID: newID(8), Name: name, Service: "bench", StartUnixNS: time.Now().UnixNano()}
	return s, func() { s.EndUnixNS = time.Now().UnixNano() }
}

// traceparent is the W3C header that makes eoled's spans join s.
func (s *span) traceparent() string { return "00-" + s.TraceID + "-" + s.SpanID + "-01" }

// writeSpans writes the spans kept in memory during a pass.
func writeSpans(path string, spans []span) error {
	b, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes sums, per span name, each span's self time: its duration
// minus the part of that interval its child spans cover. Overlapping
// children (parallel cells under one request) are counted once, and a
// child that outlives its parent is clipped to it.
func selfTimes(spans []span) map[string]time.Duration {
	children := map[string][]span{}
	for _, s := range spans {
		if s.ParentID != "" {
			children[s.TraceID+"/"+s.ParentID] = append(children[s.TraceID+"/"+s.ParentID], s)
		}
	}
	self := map[string]time.Duration{}
	for _, s := range spans {
		kids := children[s.TraceID+"/"+s.SpanID]
		slices.SortFunc(kids, func(a, b span) int { return cmp.Compare(a.StartUnixNS, b.StartUnixNS) })
		var covered int64
		edge := s.StartUnixNS // everything before edge is accounted for
		for _, k := range kids {
			lo, hi := max(k.StartUnixNS, edge), min(k.EndUnixNS, s.EndUnixNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.Name] += s.dur() - time.Duration(covered)
	}
	return self
}
