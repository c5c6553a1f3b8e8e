package main

import (
	"net/http"
	"strconv"
	"sync"

	"eole/internal/jobs"
	"eole/internal/simsvc"
)

// The stitcher writes every reply that carries a report — /v1/simulate,
// /v1/sweep and job "cell" frames — without encoding/json: it emits the
// envelope members itself and splices each report's stored canonical
// bytes in verbatim, under the label the request asked for
// (simsvc.Encoded.AppendLabeled). A cached cell therefore costs a map
// lookup and a copy, and a report is byte-identical on every path that
// serves it. The output is compact; its whitespace is not contractual.

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

// appendOutcome closes a cell object with its report or its error.
func appendOutcome(dst []byte, enc simsvc.Encoded, label, errMsg string) []byte {
	if errMsg != "" {
		dst = appendMember(dst, `,"error":`, errMsg)
	} else {
		dst = enc.AppendLabeled(append(dst, reportMember...), label)
	}
	return append(dst, '}')
}

// appendSweepCell appends one /v1/sweep result: exactly one of the
// report and errMsg is set.
func appendSweepCell(dst []byte, label, workload string, cached bool, enc simsvc.Encoded, errMsg string) []byte {
	dst = appendMember(dst, `{"config":`, label)
	dst = appendMember(dst, `,"workload":`, workload)
	dst = append(dst, `,"cached":`...)
	dst = strconv.AppendBool(dst, cached)
	return appendOutcome(dst, enc, label, errMsg)
}

// appendCellEvent appends one job "cell" frame, member for member what
// encoding/json writes for the jobs.Event.
func appendCellEvent(dst []byte, ev *jobs.Event) []byte {
	c := ev.Cell
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendInt(dst, int64(ev.Seq), 10)
	dst = appendMember(dst, `,"type":`, ev.Type)
	dst = appendMember(dst, `,"job":`, ev.Job)
	if ev.RequestID != "" {
		dst = appendMember(dst, `,"request_id":`, ev.RequestID)
	}
	dst = append(dst, `,"cell":{"index":`...)
	dst = strconv.AppendInt(dst, int64(c.Index), 10)
	dst = appendMember(dst, `,"config":`, c.Config)
	dst = appendMember(dst, `,"workload":`, c.Workload)
	if c.Cached {
		dst = append(dst, `,"cached":true`...)
	}
	dst = appendOutcome(dst, c.Encoded, c.Config, c.Error)
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
