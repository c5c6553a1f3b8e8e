package eole

import "eole/internal/config"

// This file is the design-space surface: first-class sweep grids
// (Grid/Axis) that cartesian-expand design-space axes into validated
// configs, and the option names those axes accept.
//
// A Config is plain data — it round-trips through JSON losslessly —
// so a custom machine is a named one with fields edited:
//
//	cfg, _ := eole.NamedConfig("EOLE_4_64")
//	cfg.Name = "" // anonymous: labeled from its fingerprint
//	cfg.PRF.Banks, cfg.PRF.LEVTReadPortsPerBank = 4, 4
//	if err := cfg.Validate(); err != nil { ... }
//
// Its cache identity is Config.Fingerprint(), a canonical hash that
// ignores the display Name. Anonymous configs (no Name) are labeled
// "custom-<fingerprint prefix>" wherever a name is displayed
// (Config.Label); the batch service and the eoled HTTP API key their
// result caches by fingerprint, so two identical custom configs share
// one cache entry no matter what they are called.

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
