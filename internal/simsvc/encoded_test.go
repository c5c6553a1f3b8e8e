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
