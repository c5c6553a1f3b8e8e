package simsvc

import (
	"crypto/sha256"
	"encoding/json"
	"slices"
	"testing"

	"eole"
)

// referenceKey is the key's definition: SHA-256 over the canonical
// struct as encoding/json writes it. Key.Digest assembles the same
// bytes by hand; persisted keys (artifact names, entity tags) depend
// on the two never diverging.
func referenceKey(req Request) [sha256.Size]byte {
	canonical := struct {
		Version     int    `json:"version"`
		Fingerprint string `json:"fingerprint"`
		Workload    string `json:"workload"`
		Warmup      uint64 `json:"warmup"`
		Measure     uint64 `json:"measure"`
		Sampling    any    `json:"sampling"`
	}{SchemaVersion, req.Config.Fingerprint(), req.Workload, req.Warmup, req.Measure, nil}
	if req.Sampling != nil {
		if p, err := req.Sampling.Plan(req.Measure); err == nil {
			canonical.Measure = 0
			canonical.Sampling = p
		} else {
			canonical.Sampling = req.Sampling
		}
	}
	if w, err := eole.WorkloadByName(req.Workload); err == nil {
		canonical.Workload = w.Short
	}
	b, err := json.Marshal(canonical)
	if err != nil {
		panic(err)
	}
	return sha256.Sum256(b)
}

func TestKeyMatchesReferenceEncoding(t *testing.T) {
	cfg, err := eole.NamedConfig("EOLE_4_64")
	if err != nil {
		t.Fatal(err)
	}
	samplings := []*eole.SamplingSpec{
		nil,
		{Windows: 4, Skip: 1_000, Warm: 500},
		{Windows: 4, Skip: 1_000, Warm: 500, Measure: 250},
		{Windows: 1 << 20}, // more windows than measured µ-ops: hashed raw
	}
	// Unresolvable workload names hash as given, escapes included.
	for _, wl := range []string{"gzip", "429.mcf", "long-dram", "no such", "a\"b<c> \xff"} {
		for _, sp := range samplings {
			req := Request{Config: cfg, Workload: wl, Warmup: 5_000, Measure: 35_000, Sampling: sp}
			if KeyOf(req).Digest() != referenceKey(req) {
				t.Errorf("workload %q, sampling %+v: key differs from the reference encoding", wl, sp)
			}
		}
	}
}

// TestKeysMatchesKeyOf: the batch form fingerprints each run of equal
// configs once and still yields every request's own key, whatever the
// order and whichever fields were rewritten after Cross built the list
// — a respelled or replaced workload in a later row, a sampling spec
// shared by a run and then changed.
func TestKeysMatchesKeyOf(t *testing.T) {
	var cfgs []eole.Config
	for _, name := range []string{"EOLE_4_64", "Baseline_6_64", "EOLE_4_64"} {
		cfg, err := eole.NamedConfig(name)
		if err != nil {
			t.Fatal(err)
		}
		cfgs = append(cfgs, cfg)
	}
	reqs := ApplySampling(Cross(cfgs, []string{"gzip", "mcf"}, 1_000, 3_000), &eole.SamplingSpec{Windows: 4, Skip: 1_000, Warm: 500})
	reqs[1].Measure = 4_000
	reqs[2].Workload = "164.gzip"
	reqs[3].Config.Name = "alias"
	reqs[3].Workload = "gzip"
	reqs[4].Config.IssueWidth = 5
	reqs[5].Sampling = nil
	_, f0 := HashCounts()
	keys := Keys(reqs)
	_, f1 := HashCounts()
	for i, req := range reqs {
		if keys[i] != KeyOf(req) {
			t.Errorf("request %d: Keys and KeyOf disagree", i)
		}
	}
	// Runs of equal configs: [0,1] [2] [3] [4] [5].
	if got := f1 - f0; got != 5 {
		t.Errorf("%d fingerprints for 5 runs of equal configs", got)
	}
}

// FuzzKeyIdentity: two requests built from named, aliased, inline and
// bent configs, any workload names, and sampling specs that are absent,
// spelled with their defaults left out or written in, or unresolvable.
// Keys are compared in-process and digested outside it, so the two
// must agree — equal keys exactly when equal digests — and every digest
// must be the reference encoding's. The batch form keys a grid of the
// two as KeyOf keys each.
func FuzzKeyIdentity(f *testing.F) {
	f.Add(uint8(0), "gzip", uint8(0), uint8(1), "164.gzip", uint8(0), uint64(5_000), uint64(35_000), uint8(0), uint8(4), uint64(1_000), uint64(500))
	f.Add(uint8(1), "mcf", uint8(1), uint8(2), "429.mcf", uint8(2), uint64(5_000), uint64(35_000), uint8(0), uint8(4), uint64(1_000), uint64(500))
	f.Add(uint8(3), "no such", uint8(3), uint8(4), "no such", uint8(3), uint64(0), uint64(1), uint8(1), uint8(2), uint64(0), uint64(0))
	f.Add(uint8(2), "a\"b<c> \xff", uint8(1), uint8(0), "a\"b<c> \ufffd", uint8(1), uint64(1), uint64(2), uint8(3), uint8(200), uint64(7), uint64(9))
	f.Add(uint8(0), "\xdb", uint8(0), uint8(0), "\x80", uint8(0), uint64(1), uint64(2), uint8(0), uint8(4), uint64(0), uint64(0))
	named := func(name string) eole.Config {
		cfg, err := eole.NamedConfig(name)
		if err != nil {
			f.Fatal(err)
		}
		return cfg
	}
	eole464, baseline := named("EOLE_4_64"), named("Baseline_6_64")
	alias, bent := eole464, eole464
	alias.Name = "alias"
	bent.IQSize--
	var inline eole.Config // EOLE_4_64 as an HTTP body carries it
	if err := json.Unmarshal(mustMarshal(f, eole464), &inline); err != nil {
		f.Fatal(err)
	}
	inline = inline.Normalized()
	configs := []eole.Config{eole464, alias, inline, baseline, bent}

	f.Fuzz(func(t *testing.T, ca uint8, wa string, sa uint8, cb uint8, wb string, sb uint8,
		warmup, measure uint64, dMeasure, windows uint8, skip, warm uint64) {
		base := eole.SamplingSpec{Windows: int(windows), Skip: skip, Warm: warm}
		spelled := base
		if p, err := base.Plan(measure); err == nil {
			spelled.Measure, spelled.DetailWarmup = p.Measure, p.DetailWarmup
		}
		specs := []*eole.SamplingSpec{nil, &base, &spelled, {Windows: 1 << 20}}
		a := Request{Config: configs[int(ca)%len(configs)], Workload: wa, Warmup: warmup, Measure: measure, Sampling: specs[int(sa)%len(specs)]}
		b := Request{Config: configs[int(cb)%len(configs)], Workload: wb, Warmup: warmup, Measure: measure + uint64(dMeasure), Sampling: specs[int(sb)%len(specs)]}
		ka, kb := KeyOf(a), KeyOf(b)
		da, db := ka.Digest(), kb.Digest()
		if (ka == kb) != (da == db) {
			t.Fatalf("keys equal %v, digests equal %v:\n%+v\n%+v", ka == kb, da == db, ka, kb)
		}
		if da != referenceKey(a) || db != referenceKey(b) {
			t.Fatalf("a digest differs from the reference encoding:\n%+v\n%+v", ka, kb)
		}
		if got, want := Keys([]Request{a, b, a, b}), []Key{ka, kb, ka, kb}; !slices.Equal(got, want) {
			t.Fatalf("Keys %+v, KeyOf %+v", got, want)
		}
	})
}

// TestColdCellDigestsItsKeyOnce: a miss names its result once — the
// fabric probe, the log lines and the spill share one digest — and a
// hit names it not at all.
func TestColdCellDigestsItsKeyOnce(t *testing.T) {
	s := newTestService(t, Options{Parallelism: 1})
	req := testReq(t, "EOLE_4_64", "gzip")
	for _, c := range []struct {
		what string
		want uint64
	}{{"cold", 1}, {"cached", 0}} {
		d0, _ := HashCounts()
		j, err := s.Submit(t.Context(), req)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := j.Wait(t.Context()); err != nil {
			t.Fatal(err)
		}
		if d1, _ := HashCounts(); d1-d0 != c.want {
			t.Errorf("%s cell: %d key digests, want %d", c.what, d1-d0, c.want)
		}
	}
}

// TestNamedFingerprintTable: the table holds every named config and
// yields exactly Config.Fingerprint(); a renamed alias and a bent
// variant miss it and are hashed to the same value Fingerprint gives.
func TestNamedFingerprintTable(t *testing.T) {
	table := namedFingerprints()
	if len(table) != len(eole.ConfigNames()) {
		t.Errorf("table holds %d configs, want the %d named ones", len(table), len(eole.ConfigNames()))
	}
	for _, name := range eole.ConfigNames() {
		cfg, err := eole.NamedConfig(name)
		if err != nil {
			t.Fatal(err)
		}
		alias, bent := cfg, cfg
		alias.Name = "alias"
		bent.IQSize--
		for what, c := range map[string]eole.Config{"named": cfg, "alias": alias, "bent": bent} {
			if got, want := fingerprint(c), c.Fingerprint(); got != want {
				t.Errorf("%s %s: fingerprint %s, Fingerprint %s", what, name, got, want)
			}
		}
		if _, ok := table[alias]; ok {
			t.Errorf("alias of %s found in the table", name)
		}
		if table[cfg] != cfg.Fingerprint() {
			t.Errorf("%s: table holds %q", name, table[cfg])
		}
	}
}
