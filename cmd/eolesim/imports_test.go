package main

import (
	"go/parser"
	"go/token"
	"os"
	"strconv"
	"strings"
	"testing"
)

// eolesim runs every simulation, pipe traces included, through the
// public eole API: none of its files may reach past it into the core,
// the interpreter or the workload builders.
func TestUsesOnlyThePublicSimulatorAPI(t *testing.T) {
	ents, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	parsed := 0
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), e.Name(), nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		parsed++
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			switch path {
			case "eole/internal/core", "eole/internal/prog", "eole/internal/workload":
				t.Errorf("%s imports %s; simulate through package eole instead", e.Name(), path)
			}
		}
	}
	if parsed == 0 {
		t.Fatal("no non-test Go files found")
	}
}
