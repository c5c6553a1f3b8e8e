package eole_test

import (
	"os"
	"testing"
)

// ARCHITECTURE.md and README.md describe the system as it is; how it got
// there, with the measurements of each step, is CHANGES.md's. A byte
// budget per document keeps history from settling back into them.
func TestDocsStayWithinBudget(t *testing.T) {
	for _, d := range []struct {
		file string
		max  int64
	}{{"ARCHITECTURE.md", 40_000}, {"README.md", 28_000}} {
		fi, err := os.Stat(d.file)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() > d.max {
			t.Errorf("%s is %d bytes, over its %d-byte budget: move history to CHANGES.md", d.file, fi.Size(), d.max)
		}
	}
}
