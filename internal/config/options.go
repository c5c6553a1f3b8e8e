package config

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// finalize applies cross-field defaults after a grid cell's options
// have run: with Late Execution on and no explicit LE width, the LE/VT
// stage is as wide as commit (the paper's Section 5 model).
func finalize(c *Config) {
	if c.LateExecution && c.LEWidth == 0 {
		c.LEWidth = c.CommitWidth
	}
}

// Normalized returns c with the cross-field defaults applied
// (currently: LEWidth defaults to the commit width when Late Execution
// is on). Every boundary that admits raw Config values — JSON files,
// inline HTTP objects — normalizes before validating, so a raw config,
// a grid cell and a named machine with the same fields are the same
// machine; Fingerprint also hashes the normalized form, making them
// one cacheable simulation.
func (c Config) Normalized() Config {
	finalize(&c)
	return c
}

// optionSpec is one registry entry: a canonical name, its aliases,
// and the field mutation (which checks the value's kind).
type optionSpec struct {
	name    string // canonical spelling (used in synthesized grid names)
	aliases []string
	apply   func(c *Config, v any) error
}

// optionSpecs is the registry behind Grid axes and their HTTP form.
// Every entry is a design-space axis of the paper's evaluation or a
// structural parameter Validate understands.
var optionSpecs = []*optionSpec{
	intOpt("IssueWidth", nil, 1, func(c *Config, n int) { c.IssueWidth = n }),
	intOpt("IQ", []string{"IQSize"}, 1, func(c *Config, n int) { c.IQSize = n }),
	intOpt("ROB", []string{"ROBSize"}, 1, func(c *Config, n int) { c.ROBSize = n }),
	intOpt("LQ", []string{"LQSize"}, 1, func(c *Config, n int) { c.LQSize = n }),
	intOpt("SQ", []string{"SQSize"}, 1, func(c *Config, n int) { c.SQSize = n }),
	intOpt("FetchWidth", nil, 1, func(c *Config, n int) { c.FetchWidth = n }),
	intOpt("RenameWidth", nil, 1, func(c *Config, n int) { c.RenameWidth = n }),
	intOpt("CommitWidth", nil, 1, func(c *Config, n int) { c.CommitWidth = n }),
	intOpt("FetchQueue", []string{"FetchQueueSize"}, 1, func(c *Config, n int) { c.FetchQueueSize = n }),
	intOpt("FetchToRenameLag", nil, 0, func(c *Config, n int) { c.FetchToRenameLag = n }),
	intOpt("MaxTakenPerFetch", nil, 1, func(c *Config, n int) { c.MaxTakenPerFetch = n }),
	intOpt("LEWidth", nil, 0, func(c *Config, n int) { c.LEWidth = n }),
	intOpt("PRFBanks", []string{"Banks"}, 1, func(c *Config, n int) { c.PRF.Banks = n }),
	intOpt("LEVTPorts", []string{"LEVTReadPortsPerBank"}, 0, func(c *Config, n int) { c.PRF.LEVTReadPortsPerBank = n }),
	{
		name: "EarlyExecution",
		apply: func(c *Config, v any) error {
			n, err := toInt(v)
			if err != nil {
				return err
			}
			if n < 0 || n > 2 {
				return fmt.Errorf("EarlyExecution(%d): depth must be 0 (off), 1 or 2", n)
			}
			c.EarlyExecution = n > 0
			c.EEDepth = n
			return nil
		},
	},
	boolOpt("ValuePrediction", func(c *Config, on bool) {
		c.ValuePrediction = on
		if on && c.PredictorName == "" {
			c.PredictorName = "VTAGE-2DStride"
		}
		if !on {
			c.PredictorName = ""
		}
	}),
	boolOpt("LateExecution", func(c *Config, on bool) { c.LateExecution = on }),
	boolOpt("LEBranches", func(c *Config, on bool) { c.LEBranches = on }),
	boolOpt("LEReturns", func(c *Config, on bool) { c.LEReturns = on }),
	{
		name: "Predictor", aliases: []string{"PredictorName"},
		apply: func(c *Config, v any) error {
			s, ok := v.(string)
			if !ok {
				return fmt.Errorf("Predictor: want a predictor name, got %T", v)
			}
			c.ValuePrediction = true
			c.PredictorName = s
			return nil
		},
	},
}

func intOpt(name string, aliases []string, min int, setf func(*Config, int)) *optionSpec {
	return &optionSpec{
		name: name, aliases: aliases,
		apply: func(c *Config, v any) error {
			n, err := toInt(v)
			if err != nil {
				return fmt.Errorf("%s: %v", name, err)
			}
			if n < min {
				return fmt.Errorf("%s(%d): must be >= %d", name, n, min)
			}
			setf(c, n)
			return nil
		},
	}
}

func boolOpt(name string, setf func(*Config, bool)) *optionSpec {
	return &optionSpec{
		name: name,
		apply: func(c *Config, v any) error {
			b, err := toBool(v)
			if err != nil {
				return fmt.Errorf("%s: %v", name, err)
			}
			setf(c, b)
			return nil
		},
	}
}

// optionIndex maps lower-cased names and aliases to their spec.
var optionIndex = func() map[string]*optionSpec {
	idx := make(map[string]*optionSpec)
	for _, spec := range optionSpecs {
		idx[strings.ToLower(spec.name)] = spec
		for _, a := range spec.aliases {
			idx[strings.ToLower(a)] = spec
		}
	}
	return idx
}()

// lookupOption resolves an option name (case-insensitive, aliases
// included) to its registry entry.
func lookupOption(name string) (*optionSpec, bool) {
	spec, ok := optionIndex[strings.ToLower(name)]
	return spec, ok
}

// ApplyOption applies a registry option by name, as Grid axes and
// their HTTP form do. Integer values may arrive as float64 (JSON
// numbers) as long as they are integral.
func ApplyOption(c *Config, name string, v any) error {
	spec, ok := lookupOption(name)
	if !ok {
		return fmt.Errorf("config: unknown option %q (known: %s)", name, strings.Join(OptionNames(), ", "))
	}
	if err := spec.apply(c, v); err != nil {
		return fmt.Errorf("config: option %w", err)
	}
	return nil
}

// OptionNames lists the canonical registry option names, sorted.
func OptionNames() []string {
	names := make([]string, 0, len(optionSpecs))
	for _, spec := range optionSpecs {
		names = append(names, spec.name)
	}
	sort.Strings(names)
	return names
}

// toInt accepts the integer encodings an option value can arrive in:
// Go ints from code, float64 from decoded JSON.
func toInt(v any) (int, error) {
	switch n := v.(type) {
	case int:
		return n, nil
	case int64:
		return int(n), nil
	case uint64:
		return int(n), nil
	case float64:
		if n != math.Trunc(n) || math.IsInf(n, 0) || math.IsNaN(n) {
			return 0, fmt.Errorf("want an integer, got %v", n)
		}
		return int(n), nil
	}
	return 0, fmt.Errorf("want an integer, got %T", v)
}

func toBool(v any) (bool, error) {
	if b, ok := v.(bool); ok {
		return b, nil
	}
	return false, fmt.Errorf("want a bool, got %T", v)
}
