package config

import (
	"math"
	"strings"
	"testing"

	"eole/internal/vpred"
)

func TestAllNamedConfigsValid(t *testing.T) {
	for _, name := range KnownNames() {
		c, err := Named(name)
		if err != nil {
			t.Fatalf("Named(%s): %v", name, err)
		}
		if c.Name != name {
			t.Errorf("Named(%s).Name = %s", name, c.Name)
		}
		if err := c.Validate(); err != nil {
			t.Errorf("%s invalid: %v", name, err)
		}
	}
	if _, err := Named("bogus"); err == nil {
		t.Fatal("unknown name must error")
	}
}

// TestNamedReturnsCopies: Named serves every name from a table built
// once, without allocating, and each call's Config is the caller's own
// to bend. An unknown name still lists every known one.
func TestNamedReturnsCopies(t *testing.T) {
	first, err := Named("EOLE_4_64")
	if err != nil {
		t.Fatal(err)
	}
	first.Name, first.IQSize = "bent", 1
	if again, _ := Named("EOLE_4_64"); again != EOLE(4, 64) {
		t.Errorf("a caller's edit reached the table: Named now returns %+v", again)
	}
	if allocs := testing.AllocsPerRun(100, func() { Named("EOE_4_64") }); allocs != 0 {
		t.Errorf("Named allocates %.0f times per call, want 0", allocs)
	}
	const want = `config: unknown configuration "nope" (known: [Baseline_6_64 Baseline_VP_4_64 Baseline_VP_6_48 Baseline_VP_6_64 Baseline_VP_8_64 EOE_4_64 EOLE_4_64 EOLE_4_64_4ports_4banks EOLE_6_48 EOLE_6_64 OLE_4_64])`
	if _, err := Named("nope"); err == nil || err.Error() != want {
		t.Errorf("unknown name: %v\nwant %s", err, want)
	}
}

func TestPaperConfigurationsMatchTable1(t *testing.T) {
	b := Baseline6_64()
	if b.IssueWidth != 6 || b.IQSize != 64 || b.ROBSize != 192 ||
		b.LQSize != 48 || b.SQSize != 48 || b.FetchWidth != 8 ||
		b.RenameWidth != 8 || b.CommitWidth != 8 {
		t.Fatalf("baseline does not match Table 1: %+v", b)
	}
	if b.NumALU != 6 || b.NumMulDiv != 4 || b.NumFP != 6 || b.NumFPMulDiv != 4 || b.NumMemPorts != 4 {
		t.Fatal("functional units do not match Table 1")
	}
	if b.ValuePrediction || b.EarlyExecution || b.LateExecution {
		t.Fatal("baseline must have no VP/EOLE")
	}
	if b.PRF.IntRegs != 256 || b.PRF.FPRegs != 256 {
		t.Fatal("PRF does not match Table 1 (256/256)")
	}
}

func TestVPBaselineAndEOLEDerivation(t *testing.T) {
	vp := BaselineVP(4, 48)
	if vp.Name != "Baseline_VP_4_48" || vp.IssueWidth != 4 || vp.IQSize != 48 {
		t.Fatalf("BaselineVP wrong: %+v", vp)
	}
	if !vp.ValuePrediction || vp.PredictorName != "VTAGE-2DStride" {
		t.Fatal("VP baseline must use the Table 2 hybrid")
	}
	if vp.EarlyExecution || vp.LateExecution {
		t.Fatal("VP baseline must not enable EOLE blocks")
	}

	e := EOLE(4, 64)
	if !e.EarlyExecution || !e.LateExecution || !e.LEBranches || e.EEDepth != 1 {
		t.Fatalf("EOLE config wrong: %+v", e)
	}
	if e.LEWidth != e.CommitWidth {
		t.Fatal("Section 5 idealization: LE width = commit width")
	}

	o := OLE(4, 64)
	if o.EarlyExecution || !o.LateExecution {
		t.Fatal("OLE = late execution only")
	}
	eo := EOE(4, 64)
	if !eo.EarlyExecution || eo.LateExecution || eo.LEBranches {
		t.Fatal("EOE = early execution only")
	}
}

func TestPracticalConfig(t *testing.T) {
	c := EOLE4_64Practical()
	if c.PRF.Banks != 4 || c.PRF.LEVTReadPortsPerBank != 4 {
		t.Fatalf("practical config must be 4 banks / 4 ports: %+v", c.PRF)
	}
	if !strings.Contains(c.Name, "4ports_4banks") {
		t.Fatalf("name %q", c.Name)
	}
}

func TestBanksAndPortsOptions(t *testing.T) {
	c := EOLE(4, 64)
	if err := ApplyOption(&c, "PRFBanks", 8); err != nil {
		t.Fatal(err)
	}
	if err := ApplyOption(&c, "LEVTPorts", 3); err != nil {
		t.Fatal(err)
	}
	if c.PRF.Banks != 8 || c.PRF.LEVTReadPortsPerBank != 3 || c.Name != "EOLE_4_64" {
		t.Fatalf("PRFBanks/LEVTPorts over EOLE_4_64 wrong: %+v", c)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidationCatchesBadConfigs(t *testing.T) {
	cases := []func(c *Config){
		func(c *Config) { c.IssueWidth = 0 },
		func(c *Config) { c.IQSize = c.ROBSize + 1 },
		func(c *Config) { c.EarlyExecution = true; c.ValuePrediction = false },
		func(c *Config) { c.EEDepth = 3 },
		func(c *Config) { c.PRF.Banks = 3 },
		func(c *Config) { c.PredictorName = "nope" },
	}
	for i, mutate := range cases {
		c := EOLE(4, 64)
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

// An unknown predictor name is the Predictor option's error, not a
// panic in core.New; a known one, or any name with value prediction
// off (nothing reads it then), keeps the config valid and its
// fingerprint where it was.
func TestValidatePredictorName(t *testing.T) {
	c := EOLE(4, 64)
	c.PredictorName = "nope"
	if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "Predictor(") {
		t.Errorf("unknown predictor: Validate = %v, want an error naming the Predictor option", err)
	}
	for _, name := range vpred.FamilyNames() {
		c := EOLE(4, 64)
		err := ApplyOption(&c, "Predictor", name)
		if err == nil {
			err = c.Validate()
		}
		if err != nil {
			t.Errorf("%s: %v", name, err)
		} else if name == "VTAGE-2DStride" && c.Fingerprint() != EOLE(4, 64).Fingerprint() {
			t.Errorf("naming the default predictor moved the fingerprint")
		}
	}
	off := Baseline6_64()
	off.PredictorName = "nope"
	if err := off.Validate(); err != nil {
		t.Errorf("value prediction off: %v", err)
	}
}

func TestFetchQueueCoversFrontEndPipe(t *testing.T) {
	// Regression for the rename-bandwidth ceiling: the queue must hold
	// at least FetchWidth * FetchToRenameLag µ-ops.
	b := Baseline6_64()
	if b.FetchQueueSize < b.FetchWidth*b.FetchToRenameLag {
		t.Fatalf("fetch queue %d smaller than front-end pipe %d",
			b.FetchQueueSize, b.FetchWidth*b.FetchToRenameLag)
	}
}

// internal/core compares a snapshot of its pipeline counters every
// cycle and keeps them as int32; the largest counts the µ-ops in
// flight, up to ROBSize + FetchQueueSize + 1. The largest machine
// Validate accepts must keep that below 2^21, far below
// math.MaxInt32, and one more entry in either queue must be rejected.
func TestValidateCapsFitInt32(t *testing.T) {
	c := EOLE(4, 64)
	c.ROBSize, c.FetchQueueSize = maxQueue, maxFetchQ
	if err := c.Validate(); err != nil {
		t.Fatalf("the largest machine is rejected: %v", err)
	}
	if n := int64(c.ROBSize) + int64(c.FetchQueueSize) + 1; n >= 1<<21 || n >= math.MaxInt32 {
		t.Fatalf("ROBSize + FetchQueueSize + 1 = %d for the largest valid machine, want < 2^21", n)
	}
	for name, grow := range map[string]func(*Config){
		"ROB":        func(c *Config) { c.ROBSize++ },
		"FetchQueue": func(c *Config) { c.FetchQueueSize++ },
	} {
		d := c
		grow(&d)
		if d.Validate() == nil {
			t.Errorf("%s one entry beyond its cap is accepted", name)
		}
	}
}
