// Package config defines machine configurations for the simulator:
// the Config struct (plain data), canonical content hashing
// (Config.Fingerprint), a by-name option registry behind design-space
// sweep grids (Grid/Axis), and one table of every named configuration
// the paper evaluates (Baseline_6_64, Baseline_VP_6_64, EOLE_4_64,
// OLE_4_64, ...), each a plain edit of the Table 1 baseline.
package config

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"eole/internal/isa"
	"eole/internal/regfile"
	"eole/internal/vpred"
)

// Config describes one machine. Zero values are invalid; start from
// Named or a named constructor and edit fields. Config is plain
// data: it marshals to JSON losslessly and round-trips back to an
// identical value, so configurations are first-class wire and cache
// values.
type Config struct {
	Name string

	// Front end (Table 1: 8-wide fetch with at most 2 taken
	// branches/cycle, decode, rename; deep 15-cycle front end).
	FetchWidth       int
	MaxTakenPerFetch int
	RenameWidth      int
	FetchToRenameLag int // cycles between fetch and rename of a µ-op
	FetchQueueSize   int

	// Out-of-order engine.
	IssueWidth int
	ROBSize    int
	IQSize     int
	LQSize     int
	SQSize     int

	// Functional units (Table 1).
	NumALU      int
	NumMulDiv   int
	NumFP       int
	NumFPMulDiv int
	NumMemPorts int

	// Retirement.
	CommitWidth int

	// Value prediction.
	ValuePrediction bool
	// PredictorName is one of vpred.FamilyNames (e.g. "VTAGE-2DStride",
	// "VTAGE", "2D-Stride"); the Predictor option sets it and turns
	// value prediction on.
	PredictorName string

	// EOLE features.
	EarlyExecution bool
	EEDepth        int // ALU stages in the Early Execution block (Fig 2)
	LateExecution  bool
	LEBranches     bool // resolve very-high-confidence branches at LE/VT
	// LEReturns additionally resolves very-high-confidence returns and
	// register-indirect jumps at LE/VT — the §7 future-work extension
	// ("one could postpone the resolution of high confidence ones
	// until the LE stage"). Off in all paper configurations.
	LEReturns bool
	LEWidth   int // ALUs in the LE/VT stage (commit width by default)

	// Physical register file.
	PRF regfile.Config

	// Penalties. ValueMispredictPenalty is the fetch-restart cost of a
	// commit-time squash (the paper: 21 cycles minimum); the branch
	// penalty emerges from resolve time + FetchToRenameLag.
	ValueMispredictPenalty int
}

// Structural ceilings and floors for Validate. Configurations arrive
// from untrusted sources (inline HTTP objects, JSON files), so every
// field the core sizes an allocation or a loop by must be bounded —
// generously, far beyond the paper's design space, but finitely. The
// core's per-cycle state snapshot holds its queue occupancies as int32:
// the queue caps keep even ROB + fetch queue + 1 below 2^21.
const (
	maxWidth    = 64      // pipeline widths, FU counts, LE width
	maxQueue    = 1 << 16 // ROB/IQ/LQ/SQ entries
	maxFetchQ   = 1 << 20 // fetch-queue entries
	maxFrontLag = 1024    // fetch-to-rename cycles
	maxPRFRegs  = 1 << 20 // physical registers per file
	maxPRFBanks = 64      // the core packs bank indices into int8
	maxPenalty  = 1 << 16 // value-misprediction squash cycles
)

// Validate rejects structurally impossible configurations. Error
// messages name the registry option (the Grid axis, see ApplyOption)
// that sets the offending field, so a failed Grid cell or inline HTTP
// config points at its own spec.
// Every bound here is a hard precondition of internal/core: a config
// that passes Validate must never panic or wedge the simulator, since
// arbitrary configs are reachable over the eoled HTTP API.
func (c Config) Validate() error {
	switch {
	case c.FetchWidth < 1 || c.RenameWidth < 1 || c.IssueWidth < 1 || c.CommitWidth < 1:
		return fmt.Errorf("config %s: widths must be positive (FetchWidth %d, RenameWidth %d, IssueWidth %d, CommitWidth %d)",
			c.Label(), c.FetchWidth, c.RenameWidth, c.IssueWidth, c.CommitWidth)
	case c.FetchWidth > maxWidth || c.RenameWidth > maxWidth || c.IssueWidth > maxWidth || c.CommitWidth > maxWidth:
		return fmt.Errorf("config %s: widths must be <= %d (FetchWidth %d, RenameWidth %d, IssueWidth %d, CommitWidth %d)",
			c.Label(), maxWidth, c.FetchWidth, c.RenameWidth, c.IssueWidth, c.CommitWidth)
	case c.MaxTakenPerFetch < 1:
		return fmt.Errorf("config %s: MaxTakenPerFetch(%d) must be >= 1", c.Label(), c.MaxTakenPerFetch)
	case c.FetchToRenameLag < 0 || c.FetchToRenameLag > maxFrontLag:
		return fmt.Errorf("config %s: FetchToRenameLag(%d) must be in 0..%d", c.Label(), c.FetchToRenameLag, maxFrontLag)
	case c.ROBSize < 1 || c.IQSize < 1 || c.LQSize < 1 || c.SQSize < 1:
		return fmt.Errorf("config %s: queue sizes must be positive (ROB %d, IQ %d, LQ %d, SQ %d)",
			c.Label(), c.ROBSize, c.IQSize, c.LQSize, c.SQSize)
	case c.ROBSize > maxQueue || c.IQSize > maxQueue || c.LQSize > maxQueue || c.SQSize > maxQueue:
		return fmt.Errorf("config %s: queue sizes must be <= %d (ROB %d, IQ %d, LQ %d, SQ %d)",
			c.Label(), maxQueue, c.ROBSize, c.IQSize, c.LQSize, c.SQSize)
	case c.IQSize > c.ROBSize:
		return fmt.Errorf("config %s: IQ(%d) larger than ROB(%d)", c.Label(), c.IQSize, c.ROBSize)
	case c.CommitWidth > c.RenameWidth:
		return fmt.Errorf("config %s: CommitWidth(%d) exceeds RenameWidth(%d): retire can never outpace rename",
			c.Label(), c.CommitWidth, c.RenameWidth)
	case c.FetchQueueSize < c.FetchWidth*c.FetchToRenameLag || c.FetchQueueSize < c.FetchWidth:
		return fmt.Errorf("config %s: FetchQueue(%d) cannot cover the front-end pipe: need FetchWidth(%d) x FetchToRenameLag(%d) = %d entries",
			c.Label(), c.FetchQueueSize, c.FetchWidth, c.FetchToRenameLag, c.FetchWidth*c.FetchToRenameLag)
	case c.FetchQueueSize > maxFetchQ:
		return fmt.Errorf("config %s: FetchQueue(%d) must be <= %d", c.Label(), c.FetchQueueSize, maxFetchQ)
	case c.NumALU < 1 || c.NumMulDiv < 1 || c.NumFP < 1 || c.NumFPMulDiv < 1 || c.NumMemPorts < 1:
		return fmt.Errorf("config %s: every functional-unit count must be >= 1 (ALU %d, MulDiv %d, FP %d, FPMulDiv %d, MemPorts %d): the workloads use all unit classes",
			c.Label(), c.NumALU, c.NumMulDiv, c.NumFP, c.NumFPMulDiv, c.NumMemPorts)
	case c.NumALU > maxWidth || c.NumMulDiv > maxWidth || c.NumFP > maxWidth || c.NumFPMulDiv > maxWidth || c.NumMemPorts > maxWidth:
		return fmt.Errorf("config %s: functional-unit counts must be <= %d (ALU %d, MulDiv %d, FP %d, FPMulDiv %d, MemPorts %d)",
			c.Label(), maxWidth, c.NumALU, c.NumMulDiv, c.NumFP, c.NumFPMulDiv, c.NumMemPorts)
	case (c.EarlyExecution || c.LateExecution) && !c.ValuePrediction:
		return fmt.Errorf("config %s: EarlyExecution/LateExecution require ValuePrediction", c.Label())
	case c.ValuePrediction && !slices.Contains(vpred.FamilyNames(), c.PredictorName):
		return fmt.Errorf("config %s: Predictor(%q): unknown value predictor (known: %v)",
			c.Label(), c.PredictorName, vpred.FamilyNames())
	case c.LEReturns && !c.LateExecution:
		return fmt.Errorf("config %s: LEReturns requires LateExecution", c.Label())
	case c.EarlyExecution && (c.EEDepth < 1 || c.EEDepth > 2):
		return fmt.Errorf("config %s: EarlyExecution depth must be 1 or 2, got %d", c.Label(), c.EEDepth)
	case c.LEWidth < 0 || c.LEWidth > maxWidth:
		return fmt.Errorf("config %s: LEWidth(%d) must be in 0..%d", c.Label(), c.LEWidth, maxWidth)
	case c.ValueMispredictPenalty < 0 || c.ValueMispredictPenalty > maxPenalty:
		return fmt.Errorf("config %s: ValueMispredictPenalty(%d) must be in 0..%d", c.Label(), c.ValueMispredictPenalty, maxPenalty)
	case c.PRF.Banks > maxPRFBanks:
		return fmt.Errorf("config %s: PRFBanks(%d) must be <= %d", c.Label(), c.PRF.Banks, maxPRFBanks)
	case c.PRF.IntRegs > maxPRFRegs || c.PRF.FPRegs > maxPRFRegs:
		return fmt.Errorf("config %s: physical register files must be <= %d entries (INT %d, FP %d)",
			c.Label(), maxPRFRegs, c.PRF.IntRegs, c.PRF.FPRegs)
	case c.PRF.IntRegs < isa.NumIntRegs+c.RenameWidth || c.PRF.FPRegs < isa.NumFPRegs+c.RenameWidth:
		// Renaming pins one physical register per live architectural
		// register; anything below arch state + one rename group of
		// headroom cannot sustain forward progress.
		return fmt.Errorf("config %s: PRF too small (INT %d, FP %d): need at least %d INT and %d FP physical registers (architectural state + one rename group)",
			c.Label(), c.PRF.IntRegs, c.PRF.FPRegs, isa.NumIntRegs+c.RenameWidth, isa.NumFPRegs+c.RenameWidth)
	}
	return c.PRF.Validate()
}

// baseline returns the Table 1 machine: 6-issue, 64-entry IQ, 192-entry
// ROB, 19-cycle fetch-to-commit, no value prediction. Every named
// machine is an edit of it, and so is a Grid with no base.
func baseline() Config {
	return Config{
		Name:             "Baseline_6_64",
		FetchWidth:       8,
		MaxTakenPerFetch: 2,
		RenameWidth:      8,
		FetchToRenameLag: 12, // deep front end: ~15 cycles to dispatch
		// The queue holds every µ-op in transit through the front-end
		// pipe (FetchWidth × FetchToRenameLag) plus buffering slack;
		// anything smaller throttles sustained rename bandwidth.
		FetchQueueSize: 8*12 + 32,
		IssueWidth:     6,
		ROBSize:        192,
		IQSize:         64,
		LQSize:         48,
		SQSize:         48,
		NumALU:         6,
		NumMulDiv:      4,
		NumFP:          6,
		NumFPMulDiv:    4,
		NumMemPorts:    4,
		CommitWidth:    8,
		PRF:            regfile.DefaultConfig(),

		ValueMispredictPenalty: 21,
	}
}

// Baseline6_64 is the no-VP reference machine of Table 1/Figure 6.
func Baseline6_64() Config { return baseline() }

// BaselineVP adds the VTAGE-2DStride predictor with validation at
// commit (one extra pre-commit LE/VT cycle) at the given issue width
// and IQ size: Baseline_VP_<issue>_<iq>.
func BaselineVP(issue, iq int) Config {
	c := baseline()
	c.Name = fmt.Sprintf("Baseline_VP_%d_%d", issue, iq)
	c.IssueWidth, c.IQSize = issue, iq
	c.ValuePrediction, c.PredictorName = true, "VTAGE-2DStride"
	return c
}

// EOLE returns the full {Early | OoO | Late} Execution machine:
// EOLE_<issue>_<iq>. Ports and banks are unconstrained and the LE/VT
// stage is as wide as commit (the Section 5 idealization: EE/LE treat
// any group of up to 8 µ-ops per cycle).
func EOLE(issue, iq int) Config {
	c := BaselineVP(issue, iq)
	c.Name = fmt.Sprintf("EOLE_%d_%d", issue, iq)
	c.EarlyExecution, c.EEDepth = true, 1
	c.LateExecution, c.LEBranches = true, true
	c.LEWidth = c.CommitWidth
	return c
}

// OLE removes Early Execution (Late Execution only, §6.5).
func OLE(issue, iq int) Config {
	c := EOLE(issue, iq)
	c.Name = fmt.Sprintf("OLE_%d_%d", issue, iq)
	c.EarlyExecution, c.EEDepth = false, 0
	return c
}

// EOE removes Late Execution (Early Execution only, §6.5). LEWidth
// keeps EOLE's value: nothing reads it with the stage off, but the
// fingerprint hashes it, so it stays as the golden pins it.
func EOE(issue, iq int) Config {
	c := EOLE(issue, iq)
	c.Name = fmt.Sprintf("EOE_%d_%d", issue, iq)
	c.LateExecution, c.LEBranches = false, false
	return c
}

// EOLE4_64Practical is the headline practical design of Figure 12:
// EOLE_4_64 with a 4-bank PRF and 4 LE/VT read ports per bank.
func EOLE4_64Practical() Config {
	c := EOLE(4, 64)
	c.Name = "EOLE_4_64_4ports_4banks"
	c.PRF.Banks, c.PRF.LEVTReadPortsPerBank = 4, 4
	return c
}

// namedTable is every configuration the experiments name, in the
// order KnownNames lists them (the cell order of a default sweep). It
// is built and validated once per process; an invalid entry is a
// programming bug and panics.
var namedTable = sync.OnceValue(func() []Config {
	cs := []Config{
		Baseline6_64(),
		BaselineVP(6, 64), BaselineVP(4, 64), BaselineVP(6, 48), BaselineVP(8, 64),
		EOLE(6, 64), EOLE(4, 64), EOLE(6, 48),
		OLE(4, 64), EOE(4, 64),
		EOLE4_64Practical(),
	}
	for _, c := range cs {
		if err := c.Validate(); err != nil {
			panic(fmt.Sprintf("config: %v", err))
		}
	}
	return cs
})

// Named resolves every configuration name used in the experiments. A
// Config is plain data, so every call returns its own copy.
func Named(name string) (Config, error) {
	cs := namedTable()
	for i := range cs {
		if cs[i].Name == name {
			return cs[i], nil
		}
	}
	names := KnownNames()
	sort.Strings(names)
	return Config{}, fmt.Errorf("config: unknown configuration %q (known: %v)", name, names)
}

// KnownNames lists the named configurations in table order.
func KnownNames() []string {
	cs := namedTable()
	names := make([]string, len(cs))
	for i := range cs {
		names[i] = cs[i].Name
	}
	return names
}
