package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"eole"
	"eole/internal/simsvc"
)

// sweepTagOf resolves a sweep body as handleSweep does and returns its
// cells' keys and the reply's entity tag.
func sweepTagOf(s *server, req wireRequest) ([]simsvc.Key, string, error) {
	reqs, err := s.resolve(req, formSweep)
	if err != nil {
		return nil, "", err
	}
	keys := simsvc.Keys(reqs)
	return keys, sweepETag(keys, cellLabels(reqs), req.workloads()), nil
}

// TestSweepETagCoversTheGrid: the sweep tag digests the grid, not its
// cells, so it must still change whenever the reply can — any one
// config's position, label or fingerprint, any workload's position or
// spelling (the reply echoes it), and the shared lengths and sampling.
func TestSweepETagCoversTheGrid(t *testing.T) {
	s := &server{opts: serverOptions{defaultWarmup: 2_000, defaultMeasure: 5_000, maxUops: 1_000_000}}
	named := func(name string) eole.Config {
		cfg, err := eole.NamedConfig(name)
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	alias, bent := named("EOLE_4_64"), named("EOLE_4_64")
	alias.Name = "alias"
	bent.IQSize--
	base := func() wireRequest {
		return wireRequest{
			Configs:   []configRef{namedRef("EOLE_4_64"), namedRef("Baseline_6_64")},
			Workloads: []string{"gzip", "mcf"}, Warmup: 1_000, Measure: 3_000,
		}
	}
	_, want, err := sweepTagOf(s, base())
	if err != nil {
		t.Fatal(err)
	}
	if _, again, _ := sweepTagOf(s, base()); again != want {
		t.Fatalf("the same sweep tags %s, then %s", want, again)
	}
	spec := &eole.SamplingSpec{Windows: 4, Skip: 1_000, Warm: 500}
	for name, edit := range map[string]func(*wireRequest){
		"config order":       func(r *wireRequest) { slices.Reverse(r.Configs) },
		"config label":       func(r *wireRequest) { r.Configs[0] = inlineRef(alias) },
		"config fingerprint": func(r *wireRequest) { r.Configs[0] = inlineRef(bent) },
		"workload order":     func(r *wireRequest) { slices.Reverse(r.Workloads) },
		"workload spelling":  func(r *wireRequest) { r.Workloads[1] = "429.mcf" },
		"warmup":             func(r *wireRequest) { r.Warmup++ },
		"measure":            func(r *wireRequest) { r.Measure++ },
		"sampling":           func(r *wireRequest) { r.Sampling = spec },
	} {
		req := base()
		edit(&req)
		_, got, err := sweepTagOf(s, req)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got == want {
			t.Errorf("%s changed, the tag did not (%s)", name, got)
		}
	}
}

// FuzzSweepBody: any bytes through the sweep endpoint's decoder and
// resolver. Nothing may panic, an accepted body stays within the cell
// budget, and its re-encoding means the same sweep — the same keys and
// the same tag.
func FuzzSweepBody(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"configs":["EOLE_4_64","Baseline_6_64"],"workloads":["gzip","429.mcf"],"warmup":1000,"measure":3000}`,
		`{"configs":["EOLE_4_64",{"Name":"x","IssueWidth":4}],"workloads":["gzip"]}`,
		`{"grid":{"base_name":"EOLE_4_64","axes":[{"option":"PRFBanks","values":[2,4]}]},"workloads":["mcf"]}`,
		`{"grid":{"axes":[{"option":"IQSize","values":[]}]},"configs":["EOLE_4_64"]}`,
		`{"workloads":["gzip"],"sampling":{"windows":4,"skip":1000,"warm":500},"measure":40000}`,
		`{"configs":["nope"]}`,
		`{"config":"EOLE_4_64","workloads":["gzip"]}`,
	} {
		f.Add([]byte(seed))
	}
	cfg, err := eole.NamedConfig("EOLE_4_64")
	if err != nil {
		f.Fatal(err)
	}
	dumped, err := json.Marshal(wireRequest{Configs: []configRef{inlineRef(cfg)}, Workloads: []string{"art"}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(dumped)
	s := &server{opts: serverOptions{defaultWarmup: 2_000, defaultMeasure: 5_000, maxUops: 1_000_000}}
	decode := func(b []byte) (req wireRequest, err error) {
		r := httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader(b))
		err = decodeStrict(httptest.NewRecorder(), r, &req)
		return req, err
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		req, err := decode(b)
		if err != nil {
			return
		}
		keys, tag, err := sweepTagOf(s, req)
		if err != nil {
			return
		}
		if len(keys) > maxSweepCells {
			t.Fatalf("%d cells accepted, limit %d", len(keys), maxSweepCells)
		}
		again, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted body does not re-encode: %v", err)
		}
		req2, err := decode(again)
		if err != nil {
			t.Fatalf("re-encoded body %s does not decode: %v", again, err)
		}
		keys2, tag2, err := sweepTagOf(s, req2)
		if err != nil {
			t.Fatalf("re-encoded body %s does not resolve: %v", again, err)
		}
		if !slices.Equal(keys, keys2) || tag != tag2 {
			t.Fatalf("re-encoding %q as %s changed the sweep: tag %s -> %s", b, again, tag, tag2)
		}
	})
}
