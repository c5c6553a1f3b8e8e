package simsvc

import (
	"crypto/sha256"
	"encoding/json"
	"testing"

	"eole"
)

// referenceKey is the key's definition: SHA-256 over the canonical
// struct as encoding/json writes it. keyOf assembles the same bytes by
// hand; persisted keys (artifact names, entity tags) depend on the two
// never diverging.
func referenceKey(req Request) Key {
	canonical := struct {
		Version     int    `json:"version"`
		Fingerprint string `json:"fingerprint"`
		Workload    string `json:"workload"`
		Warmup      uint64 `json:"warmup"`
		Measure     uint64 `json:"measure"`
		Sampling    any    `json:"sampling"`
	}{schemaVersion, req.Config.Fingerprint(), req.Workload, req.Warmup, req.Measure, nil}
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
			if KeyOf(req) != referenceKey(req) {
				t.Errorf("workload %q, sampling %+v: key differs from the reference encoding", wl, sp)
			}
		}
	}
}

// TestKeysMatchesKeyOf: the batch form fingerprints each run of equal
// configs once and still yields every request's own key, whatever the
// order and whichever fields were rewritten after Cross built the list.
func TestKeysMatchesKeyOf(t *testing.T) {
	var cfgs []eole.Config
	for _, name := range []string{"EOLE_4_64", "Baseline_6_64", "EOLE_4_64"} {
		cfg, err := eole.NamedConfig(name)
		if err != nil {
			t.Fatal(err)
		}
		cfgs = append(cfgs, cfg)
	}
	reqs := Cross(cfgs, []string{"gzip", "mcf"}, 1_000, 3_000)
	reqs[1].Measure = 4_000
	reqs[3].Config.Name = "alias"
	reqs[4].Config.IssueWidth = 5
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
