package artifact

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzCheckFooter feeds arbitrary bytes to checkFooter, the gate every
// artifact read from disk or received by PUT passes. It must never
// panic; what it accepts must be exactly what appendFooter writes for
// the payload it returns; and flipping any one payload byte of an
// accepted input must get it rejected. The input is also taken as a
// payload: its footed form must be accepted and give it back.
func FuzzCheckFooter(f *testing.F) {
	valid := appendFooter([]byte(`{"config":"EOLE_4_64","cycles":224266}`))
	badMagic := bytes.Clone(valid)
	badMagic[len(badMagic)-1] ^= 0xff
	overflow := bytes.Clone(valid)
	binary.LittleEndian.PutUint64(overflow[len(overflow)-footerSize+4:], ^uint64(0))
	for _, seed := range [][]byte{valid, appendFooter(nil), {1, 2, 3}, badMagic, overflow} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if payload, err := checkFooter(raw); err == nil {
			checkAccepted(t, raw, payload)
		}
		footed := appendFooter(raw)
		payload, err := checkFooter(footed)
		if err != nil || !bytes.Equal(payload, raw) {
			t.Fatalf("appendFooter's own output of %d bytes: payload %d bytes, error %v", len(raw), len(payload), err)
		}
		checkAccepted(t, footed, payload)
	})
}

// checkAccepted holds an input checkFooter accepted with payload to
// appendFooter byte for byte, and checks that a flip of any one payload
// byte — every byte up to 1 KiB, then 1 KiB spread over the rest — gets
// it rejected.
func checkAccepted(t *testing.T, raw, payload []byte) {
	t.Helper()
	if again := appendFooter(payload); !bytes.Equal(again, raw) {
		t.Fatalf("accepted %d bytes (payload %d) that appendFooter writes as %d other bytes", len(raw), len(payload), len(again))
	}
	step := max(1, len(payload)/1024)
	flipped := bytes.Clone(raw)
	for i := 0; i < len(payload); i += step {
		flipped[i] ^= byte(i%255) + 1
		if _, err := checkFooter(flipped); err == nil {
			t.Fatalf("payload byte %d of %d flipped, and the artifact is still accepted", i, len(payload))
		}
		flipped[i] = raw[i]
	}
}
