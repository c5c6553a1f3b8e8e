// Package golden pins a test's output to a file under testdata. Check
// compares the output with the file byte for byte; with
// EOLE_UPDATE_GOLDEN set it writes the file instead, which is the one
// way every golden of the module is re-pinned after an intended change
// (scripts/repin.sh sets it for the whole module). Only _test.go files
// import this package.
package golden

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// maxDiffs bounds how many differences one mismatch reports.
const maxDiffs = 20

// Check fails t unless got equals the file at path byte for byte, or,
// when EOLE_UPDATE_GOLDEN is set, writes got to path. A mismatch names
// the leaf paths that moved when both sides decode as JSON objects,
// and the first lines that differ otherwise.
func Check(t testing.TB, path string, got []byte) {
	t.Helper()
	if os.Getenv("EOLE_UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatalf("%v", err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatalf("%v", err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (EOLE_UPDATE_GOLDEN=1 writes it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	diffs := diff(want, got)
	for i, d := range diffs {
		if i == maxDiffs {
			t.Errorf("... and %d more", len(diffs)-i)
			break
		}
		t.Errorf("%s", d)
	}
	t.Errorf("%s drifted; if the change is intended, re-pin with scripts/repin.sh", path)
}

func diff(want, got []byte) []string {
	var wm, gm map[string]any
	if json.Unmarshal(want, &wm) == nil && json.Unmarshal(got, &gm) == nil {
		if d := diffJSON("", wm, gm); len(d) > 0 {
			return d
		}
	}
	return diffLines(want, got)
}

// diffJSON renders the leaf-level differences between two decoded
// JSON trees as "path: golden <x>, got <y>" lines.
func diffJSON(prefix string, want, got map[string]any) []string {
	keys := slices.Collect(maps.Keys(want))
	for k := range got {
		if _, ok := want[k]; !ok {
			keys = append(keys, k)
		}
	}
	slices.Sort(keys)
	var out []string
	for _, k := range keys {
		path := k
		if prefix != "" {
			path = prefix + "." + k
		}
		wv, wok := want[k]
		gv, gok := got[k]
		switch {
		case !wok:
			out = append(out, fmt.Sprintf("%s: not in golden, got %v", path, gv))
		case !gok:
			out = append(out, fmt.Sprintf("%s: golden %v, missing from output", path, wv))
		default:
			wsub, wIsMap := wv.(map[string]any)
			gsub, gIsMap := gv.(map[string]any)
			if wIsMap && gIsMap {
				out = append(out, diffJSON(path, wsub, gsub)...)
			} else if !reflect.DeepEqual(wv, gv) {
				out = append(out, fmt.Sprintf("%s: golden %v, got %v", path, wv, gv))
			}
		}
	}
	return out
}

// diffLines names every line that differs; a line one side lacks reads
// "(end of file)".
func diffLines(want, got []byte) []string {
	wl, gl := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
	line := func(lines []string, i int) string {
		if i < len(lines) {
			return lines[i]
		}
		return "(end of file)"
	}
	var out []string
	for i := range max(len(wl), len(gl)) {
		if w, g := line(wl, i), line(gl, i); w != g {
			out = append(out, fmt.Sprintf("line %d:\n  golden %s\n  got    %s", i+1, w, g))
		}
	}
	return out
}
