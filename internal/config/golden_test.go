package config

import (
	"encoding/json"
	"testing"

	"eole/internal/golden"
)

// TestNamedConfigsMatchGolden pins every named configuration, field
// for field, to testdata/named_configs_golden.json.
func TestNamedConfigsMatchGolden(t *testing.T) {
	named := map[string]Config{}
	for _, name := range KnownNames() {
		c, err := Named(name)
		if err != nil {
			t.Fatalf("Named(%s): %v", name, err)
		}
		named[name] = c
	}
	b, err := json.MarshalIndent(named, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	golden.Check(t, "testdata/named_configs_golden.json", append(b, '\n'))
}
