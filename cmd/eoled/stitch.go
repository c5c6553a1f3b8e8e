package main

import (
	"net/http"
	"strconv"
	"sync"

	"eole/internal/simsvc"
)

// The stitcher writes every reply that carries a report — /v1/simulate
// and /v1/sweep — without encoding/json: it emits the envelope members
// itself and splices each report's stored canonical bytes in verbatim,
// under the label the request asked for (simsvc.Encoded.AppendLabeled).
// A cached cell therefore costs a map lookup and a copy, and a report
// is byte-identical on every path that serves it. The output is
// compact; its whitespace is not contractual.

// reportMember introduces a cell's report. The one space is deliberate:
// the benchmark harness counts the literal `"report": {` in sweep
// replies as its per-reply sanity check.
const reportMember = `,"report": `

// appendMember appends a string member; name is the literal text up to
// the value, e.g. `,"workload":`.
func appendMember(dst []byte, name, value string) []byte {
	dst = append(dst, name...)
	return simsvc.AppendJSONString(dst, value)
}

// appendSweepCell appends one /v1/sweep result: exactly one of the
// report and errMsg is set.
func appendSweepCell(dst []byte, label, workload string, cached bool, enc simsvc.Encoded, errMsg string) []byte {
	dst = appendMember(dst, `{"config":`, label)
	dst = appendMember(dst, `,"workload":`, workload)
	dst = append(dst, `,"cached":`...)
	dst = strconv.AppendBool(dst, cached)
	if errMsg != "" {
		dst = appendMember(dst, `,"error":`, errMsg)
	} else {
		dst = enc.AppendLabeled(append(dst, reportMember...), label)
	}
	return append(dst, '}')
}

// bodyPool recycles reply buffers: a figure-sized sweep reply is a few
// hundred KB, and allocating (and zeroing) one per request is most of
// what a cached sweep would otherwise cost the allocator.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// maxPooledBody keeps a one-off giant reply (a maxSweepCells sweep is
// ~5 MB) from pinning its buffer in the pool.
const maxPooledBody = 1 << 20

// putBody returns a buffer once its reply is written: the write has
// copied the bytes out, so the next reply may overwrite them.
func putBody(buf *[]byte) {
	if cap(*buf) <= maxPooledBody {
		bodyPool.Put(buf)
	}
}

// writeBody sends a stitched JSON body with its length, so the reply
// is one write and never chunked.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	if _, err := w.Write(body); err != nil {
		replyFailed(w, err)
	}
}
