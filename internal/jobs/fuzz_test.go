package jobs

import (
	"bytes"
	"encoding/json"
	"testing"

	"eole"
	"eole/internal/simsvc"
)

// relayedFrame decodes one NDJSON line as Client.stream does and puts
// the cell's report through the gate a coordinator relays it through.
// ok means the line is a cell frame whose report was accepted.
func relayedFrame(line []byte) (report []byte, ok bool) {
	var ev Event
	if err := json.Unmarshal(bytes.TrimSpace(line), &ev); err != nil || ev.Cell == nil {
		return nil, false
	}
	enc, err := simsvc.CanonicalReport(ev.Cell.Encoded.Bytes())
	return enc.Bytes(), err == nil
}

// cellFrame wraps report bytes in a cell frame, as eoled stitches one.
func cellFrame(report []byte) []byte {
	return append(append([]byte(`{"seq":1,"type":"cell","job":"j","cell":{"index":0,"config":"EOLE_4_64","workload":"gzip","report":`), report...), "}}"...)
}

// TestClientHandsTheReportThroughAsBytes: the consumer's end of a cell
// frame is the producer's bytes, untouched and undecoded — and only a
// canonical report gets through the relay gate.
func TestClientHandsTheReportThroughAsBytes(t *testing.T) {
	canon, err := json.Marshal(&eole.Report{Config: "EOLE_4_64", Benchmark: "gzip", Cycles: 7, Committed: 9, IPC: 1.25})
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := relayedFrame(cellFrame(canon)); !ok || !bytes.Equal(got, canon) {
		t.Errorf("canonical report relayed as %s (accepted=%v), want it verbatim", got, ok)
	}
	spaced := append(append([]byte{}, canon[:len(canon)-1]...), " }"...)
	var ev Event
	if err := json.Unmarshal(cellFrame(spaced), &ev); err != nil || !bytes.Equal(ev.Cell.Encoded.Bytes(), spaced) {
		t.Errorf("client decoded %s (err %v), want the frame's bytes %s", ev.Cell.Encoded.Bytes(), err, spaced)
	}
	for name, report := range map[string][]byte{
		"trailing space":    spaced,
		"not a simulation":  []byte(`{"config":"EOLE_4_64","benchmark":"gzip","ipc":1.25}`),
		"no leading config": append([]byte(`{"benchmark":"gzip",`), canon[1:]...),
		"two objects":       append(append([]byte{}, canon...), canon...),
	} {
		if got, ok := relayedFrame(cellFrame(report)); ok {
			t.Errorf("%s: %s passed the relay gate as %s", name, report, got)
		}
	}
}

// FuzzRelayedFrame: whatever a worker puts on the event stream, the
// frame decoder and the relay gate never panic, and a report they let
// through is exactly what this build writes for it — it re-encodes to
// itself and opens with the member the splice relies on.
func FuzzRelayedFrame(f *testing.F) {
	canon, err := json.Marshal(&eole.Report{Config: "a\"b<c>\u2028", Benchmark: "gzip", Cycles: 7, Committed: 9, IPC: 1.25})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(cellFrame(canon))
	f.Add(cellFrame(append(append([]byte{}, canon[:len(canon)-1]...), " }"...)))
	f.Add(cellFrame([]byte(`{"config":"x","benchmark":"gzip","cycles":1}`)))
	f.Add(cellFrame([]byte(`null`)))
	f.Add([]byte(`{"type":"heartbeat"}`))
	f.Add([]byte(`{"seq":2,"type":"done","state":"done","completed":1,"total":1}`))
	for _, line := range sweepFrames {
		f.Add([]byte(line))
	}
	f.Fuzz(func(t *testing.T, line []byte) {
		report, ok := relayedFrame(line)
		if !ok {
			return
		}
		if !bytes.HasPrefix(report, []byte(`{"config":"`)) {
			t.Fatalf("accepted report does not open with the config member: %s", report)
		}
		var rep eole.Report
		if err := json.Unmarshal(report, &rep); err != nil {
			t.Fatalf("accepted report does not decode: %v: %s", err, report)
		}
		if again, err := json.Marshal(&rep); err != nil || !bytes.Equal(again, report) {
			t.Fatalf("accepted report re-encodes to\n%s\nnot itself\n%s", again, report)
		}
	})
}
