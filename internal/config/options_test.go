package config

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestGridReproducesNamedConfigs: every named machine is a point of
// the design space that single-value axes over the Table 1 baseline
// reach, with the same fields apart from the name and the same
// fingerprint. LEWidth is an axis only where a machine keeps a width
// with Late Execution off (EOE_4_64, which inherits EOLE's).
func TestGridReproducesNamedConfigs(t *testing.T) {
	one := func(option string, v any) Axis { return Axis{Option: option, Values: []any{v}} }
	vp := func(issue, iq int) []Axis {
		return []Axis{one("IssueWidth", issue), one("IQ", iq), one("ValuePrediction", true)}
	}
	eole := func(issue, iq int) []Axis {
		return append(vp(issue, iq), one("EarlyExecution", 1), one("LateExecution", true), one("LEBranches", true))
	}
	axes := map[string][]Axis{
		"Baseline_6_64":           nil,
		"Baseline_VP_6_64":        vp(6, 64),
		"Baseline_VP_4_64":        vp(4, 64),
		"Baseline_VP_6_48":        vp(6, 48),
		"Baseline_VP_8_64":        vp(8, 64),
		"EOLE_6_64":               eole(6, 64),
		"EOLE_4_64":               eole(4, 64),
		"EOLE_6_48":               eole(6, 48),
		"OLE_4_64":                append(vp(4, 64), one("LateExecution", true), one("LEBranches", true)),
		"EOE_4_64":                append(vp(4, 64), one("EarlyExecution", 1), one("LEWidth", 8)),
		"EOLE_4_64_4ports_4banks": append(eole(4, 64), one("PRFBanks", 4), one("LEVTPorts", 4)),
	}
	if len(axes) != len(KnownNames()) {
		t.Fatalf("%d grids for %d named machines", len(axes), len(KnownNames()))
	}
	for _, name := range KnownNames() {
		ax, ok := axes[name]
		if !ok {
			t.Errorf("%s: no grid spells it", name)
			continue
		}
		cs, err := Grid{Axes: ax}.Configs()
		if err != nil || len(cs) != 1 {
			t.Fatalf("%s: grid expanded to %d configs: %v", name, len(cs), err)
		}
		got, want := cs[0], mustNamed(t, name)
		if got.Fingerprint() != want.Fingerprint() {
			t.Errorf("%s: grid cell %s has another fingerprint", name, got.Name)
		}
		got.Name = want.Name
		if got != want {
			t.Errorf("%s: grid cell differs:\n got  %+v\n want %+v", name, got, want)
		}
	}
}

func mustNamed(t *testing.T, name string) Config {
	t.Helper()
	c, err := Named(name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestOptionsRejectInvalidCombinations: a registry option rejects an
// out-of-range value itself, and Validate rejects a combination that
// no single option can see, each error naming the option to change.
func TestOptionsRejectInvalidCombinations(t *testing.T) {
	type opt struct {
		name string
		v    any
	}
	cases := []struct {
		opts    []opt
		wantSub string
	}{
		{[]opt{{"IssueWidth", 0}}, "IssueWidth"},
		{[]opt{{"IQ", 256}}, "IQ"},                        // IQ > ROB
		{[]opt{{"EarlyExecution", 1}}, "ValuePrediction"}, // EE without VP
		{[]opt{{"EarlyExecution", 3}}, "EarlyExecution"},  // bad depth
		{[]opt{{"FetchQueue", 16}}, "FetchQueue"},         // cannot cover the pipe
		{[]opt{{"CommitWidth", 12}}, "CommitWidth"},       // commit > rename
		{[]opt{{"ValuePrediction", true}, {"LateExecution", true}, {"LEWidth", -1}}, "LEWidth"},
		{[]opt{{"PRFBanks", 3}}, "banks"}, // 256 not divisible by 3
	}
	for i, tc := range cases {
		c := baseline()
		var err error
		for _, o := range tc.opts {
			if err = ApplyOption(&c, o.name, o.v); err != nil {
				break
			}
		}
		if err == nil {
			err = c.Normalized().Validate()
		}
		if err == nil {
			t.Errorf("case %d: invalid options accepted", i)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("case %d: error %q does not name %q", i, err, tc.wantSub)
		}
	}
}

// TestValidateRejectsHostileConfigs covers fields only reachable by
// mutating the struct (or posting inline JSON): every value that
// would panic or wedge internal/core must fail Validate, because
// arbitrary configs arrive over the eoled HTTP API.
func TestValidateRejectsHostileConfigs(t *testing.T) {
	cases := []struct {
		mutate  func(c *Config)
		wantSub string
	}{
		{func(c *Config) { c.NumMulDiv = -1 }, "functional-unit"}, // make([]uint64, -1) panic in core
		{func(c *Config) { c.NumALU = 0 }, "functional-unit"},
		{func(c *Config) { c.NumMemPorts = 0 }, "functional-unit"},
		{func(c *Config) { c.NumFPMulDiv = 1000 }, "<= 64"},
		{func(c *Config) { c.ROBSize = 1 << 30; c.IQSize = 64 }, "queue sizes"}, // huge window allocation
		{func(c *Config) { c.FetchToRenameLag = -1 }, "FetchToRenameLag"},
		{func(c *Config) { c.FetchToRenameLag = 1 << 20; c.FetchQueueSize = 1 << 30 }, "FetchToRenameLag"},
		{func(c *Config) { c.MaxTakenPerFetch = 0 }, "MaxTakenPerFetch"},
		{func(c *Config) { c.ValueMispredictPenalty = -5 }, "ValueMispredictPenalty"},
		{func(c *Config) { c.PRF.IntRegs = 0; c.PRF.FPRegs = 0 }, "PRF"},
		{func(c *Config) { c.PRF.IntRegs = 16; c.PRF.FPRegs = 16 }, "PRF too small"},
		{func(c *Config) { c.PRF.IntRegs = 1 << 24; c.PRF.FPRegs = 1 << 24 }, "register files"},
		{func(c *Config) { c.PRF.Banks = 128; c.PRF.IntRegs = 256; c.PRF.FPRegs = 256 }, "PRFBanks"},
		{func(c *Config) { c.PRF.LEVTReadPortsPerBank = -2 }, "read ports"},
		{func(c *Config) { c.LEWidth = 1 << 20 }, "LEWidth"},
	}
	for i, tc := range cases {
		c := EOLE(4, 64)
		tc.mutate(&c)
		err := c.Validate()
		if err == nil {
			t.Errorf("case %d: hostile config accepted", i)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("case %d: error %q does not mention %q", i, err, tc.wantSub)
		}
	}
}

// TestNormalizedUnifiesRawAndBuilderConfigs: a raw config that left
// LEWidth at 0 with Late Execution on (the commit-width default) is
// the same machine as the named one that spells the width out —
// Normalized fills the field and Fingerprint hashes the normalized
// form, so both share one cache identity.
func TestNormalizedUnifiesRawAndBuilderConfigs(t *testing.T) {
	built := EOLE(4, 64) // LEWidth = CommitWidth = 8, written out
	raw := built
	raw.LEWidth = 0 // as a hand-written JSON config would arrive
	if raw.Normalized() != built {
		t.Errorf("Normalized() = %+v, want %+v", raw.Normalized(), built)
	}
	if raw.Fingerprint() != built.Fingerprint() {
		t.Error("raw LEWidth-0 config must fingerprint-match the named machine")
	}
	// Without LE, LEWidth 0 stays 0 (nothing to default).
	noLE := Baseline6_64()
	if noLE.Normalized() != noLE {
		t.Error("Normalized must not touch configs without Late Execution")
	}
}

func TestLEWidthDefaultsToCommitWidth(t *testing.T) {
	late := []Axis{
		{Option: "ValuePrediction", Values: []any{true}},
		{Option: "LateExecution", Values: []any{true}},
	}
	cs, err := Grid{Axes: late}.Configs()
	if err != nil {
		t.Fatal(err)
	}
	if c := cs[0]; c.LEWidth != c.CommitWidth {
		t.Fatalf("LEWidth = %d, want commit width %d", c.LEWidth, c.CommitWidth)
	}
	cs, err = Grid{Axes: append(late, Axis{Option: "LEWidth", Values: []any{2}})}.Configs()
	if err != nil {
		t.Fatal(err)
	}
	if cs[0].LEWidth != 2 {
		t.Fatalf("explicit LEWidth overridden: %d", cs[0].LEWidth)
	}
}

// TestConfigJSONRoundTripAndFingerprint is the property-style check of
// the serialization contract over every named config and a grid's
// cells: JSON round-trips losslessly, the fingerprint
// survives the round trip, and renaming never changes it.
func TestConfigJSONRoundTripAndFingerprint(t *testing.T) {
	var cfgs []Config
	for _, name := range KnownNames() {
		cfgs = append(cfgs, mustNamed(t, name))
	}
	g := Grid{
		BaseName: "EOLE_4_64",
		Axes: []Axis{
			{Option: "IssueWidth", Values: []any{4, 5, 6}},
			{Option: "PRFBanks", Values: []any{1, 2, 4}},
			{Option: "LEVTPorts", Values: []any{0, 4}},
		},
	}
	gridCfgs, err := g.Configs()
	if err != nil {
		t.Fatal(err)
	}
	cfgs = append(cfgs, gridCfgs...)

	seen := make(map[string]string) // fingerprint -> label
	for _, c := range cfgs {
		wire, err := json.Marshal(c)
		if err != nil {
			t.Fatalf("%s: marshal: %v", c.Label(), err)
		}
		var back Config
		if err := json.Unmarshal(wire, &back); err != nil {
			t.Fatalf("%s: unmarshal: %v", c.Label(), err)
		}
		if back != c {
			t.Errorf("%s: JSON round trip lost data:\n got  %+v\n want %+v", c.Label(), back, c)
		}
		if back.Fingerprint() != c.Fingerprint() {
			t.Errorf("%s: fingerprint changed across JSON round trip", c.Label())
		}

		renamed := c
		renamed.Name = "some_other_label"
		if renamed.Fingerprint() != c.Fingerprint() {
			t.Errorf("%s: fingerprint depends on Name", c.Label())
		}

		if prev, dup := seen[c.Fingerprint()]; dup {
			// Distinct parameters must not collide. (EOLE_6_64 appears
			// once named and once as the grid's issue-6 cell — equal
			// fields, so an equal fingerprint is correct there.)
			pc := findByLabel(cfgs, prev)
			cc := c
			pc.Name, cc.Name = "", ""
			if pc != cc {
				t.Errorf("fingerprint collision between %s and %s", prev, c.Label())
			}
		}
		seen[c.Fingerprint()] = c.Label()
	}
}

func findByLabel(cfgs []Config, label string) Config {
	for _, c := range cfgs {
		if c.Label() == label {
			return c
		}
	}
	return Config{}
}

func TestFingerprintStableAcrossProcessRuns(t *testing.T) {
	// Pinned literal: if this changes, stored cache keys derived from
	// fingerprints are invalidated — bump fingerprintVersion knowingly,
	// and update this constant.
	const want = "0677fbe7dfce"
	if got := mustNamed(t, "EOLE_4_64").Fingerprint()[:12]; got != want {
		t.Errorf("EOLE_4_64 fingerprint prefix = %s, want %s (did Config change shape?)", got, want)
	}
}

func TestLabelForAnonymousConfigs(t *testing.T) {
	c := mustNamed(t, "EOLE_4_64")
	if c.Label() != "EOLE_4_64" {
		t.Fatalf("named label = %s", c.Label())
	}
	c.Name = ""
	lbl := c.Label()
	if !strings.HasPrefix(lbl, "custom-") || len(lbl) != len("custom-")+12 {
		t.Fatalf("anonymous label = %q", lbl)
	}
	if lbl != "custom-"+c.Fingerprint()[:12] {
		t.Fatalf("label %q not derived from fingerprint", lbl)
	}

	d := c
	d.IssueWidth++
	if d.Label() == lbl {
		t.Fatal("distinct anonymous configs share a label")
	}
}

func TestApplyOptionUnknownAndBadValues(t *testing.T) {
	c := Baseline6_64()
	if err := ApplyOption(&c, "WarpDrive", 1); err == nil || !strings.Contains(err.Error(), "unknown option") {
		t.Fatalf("unknown option: %v", err)
	}
	if err := ApplyOption(&c, "IssueWidth", 4.5); err == nil || !strings.Contains(err.Error(), "integer") {
		t.Fatalf("fractional value: %v", err)
	}
	if err := ApplyOption(&c, "LateExecution", 1); err == nil || !strings.Contains(err.Error(), "bool") {
		t.Fatalf("non-bool value: %v", err)
	}
	// Case-insensitive + alias resolution, float64 as JSON delivers it.
	if err := ApplyOption(&c, "iqsize", float64(48)); err != nil {
		t.Fatalf("alias apply: %v", err)
	}
	if c.IQSize != 48 {
		t.Fatalf("IQSize = %d", c.IQSize)
	}
}
