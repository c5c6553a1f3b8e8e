package core

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// ARCHITECTURE.md explains this package by naming its fields and
// methods, and a refactor that renames or deletes one leaves the prose
// pointing at nothing. Every `uop.x`, `Core.x` and `pipeState.x` it
// mentions in backticks must still exist: fields by reflection (which
// follows embedding, so `uop.availCycle` and `uop.Seq` resolve), methods
// from the package's source, since reflection hides unexported ones.
func TestArchitectureNamesExist(t *testing.T) {
	doc, err := os.ReadFile("../../ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	types := map[string]reflect.Type{
		"uop":       reflect.TypeOf(uop{}),
		"Core":      reflect.TypeOf(Core{}),
		"pipeState": reflect.TypeOf(pipeState{}),
	}
	methods := declaredMethods(t)

	span := regexp.MustCompile("`[^`\n]+`")
	name := regexp.MustCompile(`\b(uop|Core|pipeState)\)?\.([A-Za-z_]\w*)`)
	checked := 0
	for _, code := range span.FindAllString(string(doc), -1) {
		for _, m := range name.FindAllStringSubmatch(code, -1) {
			typ, member := m[1], m[2]
			checked++
			if _, ok := types[typ].FieldByName(member); ok || methods[typ+"."+member] {
				continue
			}
			t.Errorf("ARCHITECTURE.md mentions %s: type %s has no field or method %s", code, typ, member)
		}
	}
	// The walkthrough names at least the ring, the select list and the
	// loop; finding none means the pattern rotted, not the document.
	if checked < 5 {
		t.Fatalf("only %d qualified names found in ARCHITECTURE.md", checked)
	}
}

// declaredMethods returns "Type.method" for every method the package's
// non-test files declare.
func declaredMethods(t *testing.T) map[string]bool {
	t.Helper()
	files, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	for _, fi := range files {
		if !strings.HasSuffix(fi.Name(), ".go") || strings.HasSuffix(fi.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), fi.Name(), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil {
				continue
			}
			recv := fd.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			if id, ok := recv.(*ast.Ident); ok {
				out[id.Name+"."+fd.Name.Name] = true
			}
		}
	}
	return out
}
