package eole

import "eole/internal/config"

// This file is the composable-configuration surface: functional
// options for building arbitrary machine configurations (NewConfig),
// and first-class sweep grids (Grid/Axis) that cartesian-expand
// design-space axes into validated configs.
//
// A Config is plain data — it round-trips through JSON losslessly —
// and its cache identity is Config.Fingerprint(), a canonical hash
// that ignores the display Name. Anonymous configs (no Name) are
// labeled "custom-<fingerprint prefix>" wherever a name is displayed
// (Config.Label); the batch service and the eoled HTTP API key their
// result caches by fingerprint, so two identical custom configs share
// one cache entry no matter what they are called.

// ConfigOption customizes NewConfig. Options apply in order;
// FromBaseline / FromNamed / FromConfig replace the whole
// configuration and therefore belong first.
type ConfigOption = config.Option

// NewConfig builds a machine configuration from functional options,
// starting from an anonymous copy of the Table 1 baseline:
//
//	cfg, err := eole.NewConfig(
//		eole.FromBaseline(),
//		eole.IssueWidth(4), eole.IQ(64),
//		eole.ValuePrediction(true),
//		eole.EarlyExecution(1), eole.LateExecution(true),
//		eole.LEBranches(true),
//		eole.PRFBanks(4), eole.LEVTPorts(4),
//	)
//
// The result is validated; with Late Execution on and no explicit
// LEWidth, the LE/VT stage defaults to the commit width (the paper's
// Section 5 model). The named paper configurations are sugar over
// this builder (see NamedConfig), so a builder chain reproducing a
// named config is field-identical to it.
func NewConfig(opts ...ConfigOption) (Config, error) { return config.New(opts...) }

// FromBaseline resets to an anonymous copy of the Table 1 baseline.
func FromBaseline() ConfigOption { return config.FromBaseline() }

// FromNamed starts from a named paper configuration.
func FromNamed(name string) ConfigOption { return config.FromNamed(name) }

// FromConfig starts from a copy of an existing configuration.
func FromConfig(c Config) ConfigOption { return config.FromConfig(c) }

// WithName sets the display name — a label only, excluded from
// Config.Fingerprint.
func WithName(name string) ConfigOption { return config.WithName(name) }

// IssueWidth sets the out-of-order issue width.
func IssueWidth(n int) ConfigOption { return config.IssueWidth(n) }

// IQ sets the unified instruction-queue size.
func IQ(n int) ConfigOption { return config.IQ(n) }

// ROB sets the reorder-buffer size.
func ROB(n int) ConfigOption { return config.ROB(n) }

// LQ sets the load-queue size.
func LQ(n int) ConfigOption { return config.LQ(n) }

// SQ sets the store-queue size.
func SQ(n int) ConfigOption { return config.SQ(n) }

// FetchWidth sets the front-end fetch width.
func FetchWidth(n int) ConfigOption { return config.FetchWidth(n) }

// RenameWidth sets the rename width.
func RenameWidth(n int) ConfigOption { return config.RenameWidth(n) }

// CommitWidth sets the retirement width.
func CommitWidth(n int) ConfigOption { return config.CommitWidth(n) }

// FetchQueue sets the fetch-queue depth; it must cover the front-end
// pipe (FetchWidth × FetchToRenameLag).
func FetchQueue(n int) ConfigOption { return config.FetchQueue(n) }

// ValuePrediction toggles the value predictor (the VTAGE-2DStride
// hybrid unless Predictor selected another one).
func ValuePrediction(on bool) ConfigOption { return config.ValuePrediction(on) }

// Predictor enables value prediction with the named predictor from
// internal/vpred (e.g. "VTAGE-2DStride", "VTAGE", "2D-Stride"); the
// names are vpred.FamilyNames.
func Predictor(name string) ConfigOption { return config.Predictor(name) }

// EarlyExecution sets the Early Execution ALU depth: 0 disables the
// block, 1 or 2 enable it with that many cascaded stages (Figure 2).
func EarlyExecution(depth int) ConfigOption { return config.EarlyExecution(depth) }

// LateExecution toggles the Late Execution / Validation and Training
// pre-commit stage.
func LateExecution(on bool) ConfigOption { return config.LateExecution(on) }

// LEBranches toggles resolving very-high-confidence branches at LE/VT.
func LEBranches(on bool) ConfigOption { return config.LEBranches(on) }

// LEReturns toggles the §7 extension: very-high-confidence returns and
// indirect jumps resolve at LE/VT.
func LEReturns(on bool) ConfigOption { return config.LEReturns(on) }

// LEWidth caps the ALUs in the LE/VT stage (0 = commit width).
func LEWidth(n int) ConfigOption { return config.LEWidth(n) }

// PRFBanks splits each physical register file into n banks (Figure 10).
func PRFBanks(n int) ConfigOption { return config.PRFBanks(n) }

// LEVTPorts caps the LE/VT read ports per PRF bank (Figure 11;
// 0 = unconstrained).
func LEVTPorts(n int) ConfigOption { return config.LEVTPorts(n) }

// ConfigOptionNames lists the option names a Grid axis (or the HTTP
// axis spec) accepts, sorted.
func ConfigOptionNames() []string { return config.OptionNames() }

// Axis is one dimension of a design-space sweep: a config option name
// (see ConfigOptionNames) and the values it takes. Its JSON form —
// {"option": "PRFBanks", "values": [2, 4, 8]} — is what /v1/sweep
// accepts on the wire.
type Axis = config.Axis

// Grid is a first-class sweep specification: a base configuration
// (named via BaseName, inline via Base, or the Table 1 baseline when
// both are empty) and a set of axes whose cartesian product
// Grid.Configs expands into validated, distinctly-named
// configurations in row-major order (first axis slowest). Grids are
// plain data and round-trip through JSON, so the same value drives
// the Go API, the eoled HTTP API and config files on disk.
type Grid = config.Grid
