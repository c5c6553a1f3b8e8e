package main

import (
	"go/parser"
	"go/token"
	"os"
	"strconv"
	"strings"
	"testing"
)

// eoled serves data and clients draw it: experiments -figdir and
// eolesim -svg render figures, eolectl trace renders span trees. None
// of eoled's files may import the table builders or the renderers, so
// a server-side renderer cannot grow back unnoticed.
func TestRendersNothing(t *testing.T) {
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
			case "eole/internal/experiments", "eole/internal/stats":
				t.Errorf("%s imports %s; serve the reports and let a client render them", e.Name(), path)
			}
		}
	}
	if parsed == 0 {
		t.Fatal("no non-test Go files found")
	}
}
