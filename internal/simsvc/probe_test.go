package simsvc

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"testing"

	"eole"
	"eole/internal/artifact"
)

// TestProbeCountsAsSubmit: a hit found by Probe moves every counter as
// SubmitKeyed's hit does and logs the same Debug line; a miss is left
// zero and moves nothing; a closed service refuses the probe.
func TestProbeCountsAsSubmit(t *testing.T) {
	var buf syncBuffer
	logger := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	s := newTestService(t, Options{Parallelism: 1, Logger: logger})
	ctx := context.Background()
	hit, miss := testReq(t, "EOLE_4_64", "gzip"), testReq(t, "EOLE_4_64", "mcf")
	j, err := s.Submit(ctx, hit)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(ctx); err != nil {
		t.Fatal(err)
	}

	counters := func(st Stats) [7]uint64 {
		return [7]uint64{st.JobsSubmitted, st.JobsCompleted, st.CacheHits, st.CacheMisses, st.DiskHits, st.Coalesced, st.SimsRun}
	}
	keys := []Key{KeyOf(hit), KeyOf(miss)}
	out := []Encoded{{}, j.Encoded()} // a stale slot must be cleared on a miss
	c0 := counters(s.Stats())
	hits, err := s.Probe(ctx, keys, out)
	if err != nil || hits != 1 {
		t.Fatalf("Probe = %d, %v; want 1 hit", hits, err)
	}
	if !bytes.Equal(out[0].Bytes(), j.Encoded().Bytes()) || out[1].Bytes() != nil {
		t.Errorf("Probe filled %q and %q, want the stored report and nothing", out[0].Bytes(), out[1].Bytes())
	}
	c1 := counters(s.Stats())
	if _, err := s.SubmitKeyed(ctx, hit, keys[0]); err != nil {
		t.Fatal(err)
	}
	c2 := counters(s.Stats())
	for i := range c0 {
		if c1[i]-c0[i] != c2[i]-c1[i] {
			t.Errorf("counter %d: the probe moved it by %d, a submitted hit by %d", i, c1[i]-c0[i], c2[i]-c1[i])
		}
	}
	if n := strings.Count(buf.String(), "job_cache_hit"); n != 2 {
		t.Errorf("%d job_cache_hit lines for one probed and one submitted hit, want 2", n)
	}

	s.Close()
	if _, err := s.Probe(ctx, keys, out); !errors.Is(err, ErrClosed) {
		t.Errorf("Probe after Close: %v, want ErrClosed", err)
	}
}

// duplicateConfig is a payload that opens with a "config" string and
// decodes as a report, yet carries a second "config" member: json
// decoding keeps the last one, so a splice under any label would be
// read back as "b".
func duplicateConfig(t testing.TB) []byte {
	rep := eole.Report{Config: "a", Benchmark: "gzip", Cycles: 7, Committed: 9, IPC: 1.25}
	canon, err := json.Marshal(&rep)
	if err != nil {
		t.Fatal(err)
	}
	return append(canon[:len(canon)-1:len(canon)-1], `,"config":"b"}`...)
}

// TestResultTierRefusesDuplicateConfig: the fabric payload above is a
// miss, so the cell is simulated and served under its own label.
func TestResultTierRefusesDuplicateConfig(t *testing.T) {
	b := duplicateConfig(t)
	if _, ok := parseEncoded(b); !ok {
		t.Fatal("the payload no longer opens with a config string; the test proves nothing")
	}
	store, err := artifact.Open(artifact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	req := testReq(t, "EOLE_4_64", "gzip")
	if err := store.Put(artifact.KindResult, KeyOf(req).String(), b); err != nil {
		t.Fatal(err)
	}
	s := newTestService(t, Options{Parallelism: 1, Artifacts: store})
	j, err := s.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := j.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.DiskHits != 0 || st.SimsRun != 1 {
		t.Errorf("disk hits %d, sims run %d; want the stored payload refused and the cell simulated", st.DiskHits, st.SimsRun)
	}
	if rep.Config != "EOLE_4_64" {
		t.Errorf("served report names config %q", rep.Config)
	}
}

// FuzzSplicedReport: whatever bytes the result tier accepts splice
// into exactly one JSON object whose "config" is the requested label
// and whose every other member is the stored report's, byte for byte.
// Encoded.UnmarshalJSON, the way a received report enters, refuses
// whatever parseEncoded refuses (null aside: it is the absent report).
func FuzzSplicedReport(f *testing.F) {
	rep := eole.Report{Config: "EOLE_4_64", Benchmark: "gzip", Cycles: 7, Committed: 9, IPC: 1.25}
	canon, err := json.Marshal(&rep)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(canon, "alias")
	f.Add(canon, "a\"b<c> \xff")
	f.Add(duplicateConfig(f), "X")
	f.Add([]byte(`{"config":"a"} {"config":"b"}`), "X")
	f.Add([]byte(`null`), "")
	// The result tier itself: bytes stored under a key and read back
	// through the typed map's fabric lookup.
	store, err := artifact.Open(artifact.Options{})
	if err != nil {
		f.Fatal(err)
	}
	tier, key := newResultCache(store, 1), Key{}
	name := key.String()
	f.Fuzz(func(t *testing.T, b []byte, label string) {
		var e Encoded
		if _, ok := parseEncoded(b); !ok && string(b) != "null" && e.UnmarshalJSON(b) == nil {
			t.Fatalf("UnmarshalJSON accepts %q, which parseEncoded refuses", b)
		}
		if err := store.Put(artifact.KindResult, name, b); err != nil {
			return // too large for the store: never reaches the tier
		}
		r, ok := tier.getStore(context.Background(), key, name, true)
		if !ok {
			return
		}
		stored, err := objectMembers(b)
		if err != nil {
			t.Fatalf("the result tier accepts %q: %v", b, err)
		}
		spliced := r.enc.AppendLabeled(nil, label)
		got, err := objectMembers(spliced)
		if err != nil {
			t.Fatalf("%q spliced under %q is %s: %v", b, label, spliced, err)
		}
		var want, name string
		if err := json.Unmarshal(mustMarshal(t, label), &want); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(got["config"], &name); err != nil || name != want {
			t.Fatalf("%s: config %s, want %q", spliced, got["config"], want)
		}
		if len(got) != len(stored) {
			t.Fatalf("%s has %d members, the stored report %d", spliced, len(got), len(stored))
		}
		for k, v := range stored {
			if k != "config" && !bytes.Equal(got[k], v) {
				t.Fatalf("%s: member %q is %s, stored %s", spliced, k, got[k], v)
			}
		}
	})
}

// objectMembers decodes b as exactly one JSON object, returning each
// member's raw value; a member named twice is an error.
func objectMembers(b []byte) (map[string]json.RawMessage, error) {
	dec := json.NewDecoder(bytes.NewReader(b))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return nil, fmt.Errorf("not an object (%v)", err)
	}
	m := make(map[string]json.RawMessage)
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return nil, err
		}
		name := tok.(string)
		if _, dup := m[name]; dup {
			return nil, fmt.Errorf("member %q twice", name)
		}
		var v json.RawMessage
		if err := dec.Decode(&v); err != nil {
			return nil, err
		}
		m[name] = v
	}
	if _, err := dec.Token(); err != nil {
		return nil, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("more after the object")
	}
	return m, nil
}
