package simsvc

import (
	"bytes"
	"encoding/json"
	"testing"

	"eole"
)

// TestAppendJSONStringMatchesEncodingJSON sweeps every byte value (so
// every character the fast path must hand to the encoder) plus the
// multi-byte cases encoding/json treats specially.
func TestAppendJSONStringMatchesEncodingJSON(t *testing.T) {
	cases := []string{"", "EOLE_4_64", "custom-0123456789ab", "a\"b<c>\u2028", "\u2029&\\", "caf\u00e9", "bad\xffutf8"}
	for b := 0; b < 256; b++ {
		cases = append(cases, "x"+string([]byte{byte(b)})+"y")
	}
	for _, s := range cases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendJSONString([]byte("~"), s); !bytes.Equal(got[1:], want) || got[0] != '~' {
			t.Errorf("%q: appended %s, encoding/json writes %s", s, got[1:], want)
		}
	}
}

// TestEncodedRelabel: the splice equals a decode-relabel-encode round
// trip for any label, including when the stored label itself holds
// escapes the tail search has to step over.
func TestEncodedRelabel(t *testing.T) {
	for _, stored := range []string{"EOLE_4_64", "", `q"\`, "a\"b<c>\u2028"} {
		rep := &eole.Report{Config: stored, Benchmark: "gzip", Cycles: 7, Committed: 9, IPC: 1.25}
		enc, err := encodeReport(rep)
		if err != nil {
			t.Fatal(err)
		}
		if want, _ := json.Marshal(rep); !bytes.Equal(enc.Bytes(), want) {
			t.Errorf("stored %q: Bytes() is not json.Marshal(report)", stored)
		}
		for _, label := range []string{stored, "alias", "a\"b<c>\u2028", ""} {
			cp := *rep
			cp.Config = label
			want, err := json.Marshal(&cp)
			if err != nil {
				t.Fatal(err)
			}
			if got := enc.AppendLabeled(nil, label); !bytes.Equal(got, want) {
				t.Errorf("stored %q, label %q:\n got %s\nwant %s", stored, label, got, want)
			}
		}
	}
}

// TestParseEncodedRejectsForeignPayloads: only bytes that open with a
// "config" string member can be spliced; anything else is a cache miss.
func TestParseEncodedRejectsForeignPayloads(t *testing.T) {
	for _, b := range []string{
		``, `{}`, `{"config":`, `{"config":"unterminated`, `{"config":"x\"`,
		`{"config":7,"benchmark":"gzip"}`, `{ "config":"x"}`, `{"benchmark":"gzip","config":"x"}`, `[1]`,
	} {
		if _, ok := parseEncoded([]byte(b)); ok {
			t.Errorf("%s accepted as a canonical report", b)
		}
	}
}

// TestEncodedCrossesTheWireAsBytes: a consumer's Encoded is the
// producer's bytes — unmarshaling decodes nothing and keeps even
// whitespace, marshaling gives them back, and the label still splices.
func TestEncodedCrossesTheWireAsBytes(t *testing.T) {
	rep := &eole.Report{Config: "EOLE_4_64", Benchmark: "gzip", Cycles: 7, Committed: 9, IPC: 1.25}
	sent, err := encodeReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := json.Marshal(struct {
		Report Encoded `json:"report,omitzero"`
		Absent Encoded `json:"absent,omitzero"`
	}{Report: sent})
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"report":` + string(sent.Bytes()) + `}`; string(frame) != want {
		t.Fatalf("marshaled %s, want %s", frame, want)
	}
	var got struct {
		Report Encoded `json:"report"`
		Null   Encoded `json:"null"`
	}
	spaced := `{"report": {"config":"EOLE_4_64", "benchmark":"gzip" } , "null":null}`
	if err := json.Unmarshal([]byte(spaced), &got); err != nil {
		t.Fatal(err)
	}
	if string(got.Report.Bytes()) != `{"config":"EOLE_4_64", "benchmark":"gzip" }` || got.Null.Bytes() != nil {
		t.Errorf("unmarshaled %q and %q, want the member's bytes verbatim and nothing for null", got.Report.Bytes(), got.Null.Bytes())
	}
	if relabeled := got.Report.AppendLabeled(nil, "alias"); string(relabeled) != `{"config":"alias", "benchmark":"gzip" }` {
		t.Errorf("relabeled %s", relabeled)
	}
	if err := json.Unmarshal([]byte(`{"report":{"benchmark":"gzip","config":"x"}}`), &got); err == nil {
		t.Error("a report that does not open with its config was accepted")
	}
}

// TestCanonicalReport: the gate for report bytes from outside the
// process admits exactly what this build writes for a simulation
// report, and nothing that merely decodes to the same thing.
func TestCanonicalReport(t *testing.T) {
	rep := eole.Report{Config: "a\"b<c>\u2028", Benchmark: "gzip", Cycles: 7, Committed: 9, IPC: 1.25}
	canon, err := json.Marshal(&rep)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := CanonicalReport(canon)
	if err != nil || !bytes.Equal(enc.Bytes(), canon) {
		t.Fatalf("canonical bytes refused: %v", err)
	}
	rep.Config = "x"
	if got, want := enc.AppendLabeled(nil, "x"), mustMarshal(t, &rep); !bytes.Equal(got, want) {
		t.Errorf("accepted bytes relabel to %s, want %s", got, want)
	}
	for name, b := range map[string][]byte{
		"empty":             nil,
		"not JSON":          []byte(`{"config":`),
		"not a report":      []byte(`[1]`),
		"not a simulation":  []byte(`{"config":"x","benchmark":"gzip"}`),
		"indented":          append(append([]byte{}, canon[:len(canon)-1]...), " }"...),
		"trailing newline":  append(append([]byte{}, canon...), '\n'),
		"two objects":       append(append([]byte{}, canon...), canon...),
		"unescaped label":   bytes.Replace(canon, []byte(`\u003c`), []byte(`<`), 1),
		"no leading config": append([]byte(`{"benchmark":"gzip",`), canon[1:]...),
	} {
		if _, err := CanonicalReport(b); err == nil {
			t.Errorf("%s: %s passed the gate", name, b)
		}
	}
}

func mustMarshal(tb testing.TB, v any) []byte {
	tb.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}
