package eole_test

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"eole"
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

// ARCHITECTURE.md explains the code by naming it, and a refactor that
// renames or deletes a declaration leaves the prose pointing at nothing.
// In backticks, every `pkg.Name` must be declared at the top level of a
// package of that name (the repo's, else the standard library's), every
// `Type.member` must be a field or method of a repo type of that name,
// found through embedded fields and aliases too, and every `file.go`
// must exist.
func TestArchitectureNamesExist(t *testing.T) {
	doc, err := os.ReadFile("ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	repo := newDecls()
	var files []string
	err = filepath.WalkDir(".", func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if path != "." && (strings.HasPrefix(e.Name(), ".") || e.Name() == "testdata") {
				return filepath.SkipDir
			}
			return repo.parseDir(path)
		}
		files = append(files, "/"+filepath.ToSlash(path))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// The resolver itself: a promoted field resolves, an invented one
	// does not.
	if !repo.resolves("uop.Seq") || repo.resolves("uop.noSuchField") || repo.resolves("core.noSuchFunc") {
		t.Fatal("the resolver does not follow embedding, or accepts anything")
	}

	span := regexp.MustCompile("`[^`\n]+`")
	file := regexp.MustCompile(`[\w./-]+\.go\b`)
	name := regexp.MustCompile(`\b[A-Za-z_]\w*\)?\.[A-Za-z_]\w*`)
	checked := map[string]bool{}
	for _, code := range span.FindAllString(string(doc), -1) {
		for _, f := range file.FindAllString(code, -1) {
			if !slices.ContainsFunc(files, func(p string) bool { return strings.HasSuffix(p, "/"+f) }) {
				t.Errorf("ARCHITECTURE.md mentions %s: no such file", f)
			}
		}
		for _, n := range name.FindAllString(file.ReplaceAllString(code, ""), -1) {
			n = strings.Replace(n, ")", "", 1)
			if checked[n] {
				continue
			}
			checked[n] = true
			if !repo.resolves(n) && !stdlibDeclares(t, n) {
				t.Errorf("ARCHITECTURE.md mentions %s in %s: no such declaration", n, code)
			}
		}
	}
	// The walkthrough names dozens; finding few means the pattern
	// rotted, not the document.
	if len(checked) < 50 {
		t.Fatalf("only %d qualified names found in ARCHITECTURE.md", len(checked))
	}
}

// decls indexes the non-test declarations of a set of packages by
// package name: top-level names, and the members of each type.
type decls struct {
	top   map[string]map[string]bool // package → top-level names
	types map[string]*typeDecl       // "package.Type"
	named map[string][]string        // Type → its "package.Type" keys
}

type typeDecl struct {
	members map[string]bool // fields, methods and interface methods
	embeds  []string        // "package.Type" of embedded fields and alias targets
}

func newDecls() *decls {
	return &decls{top: map[string]map[string]bool{}, types: map[string]*typeDecl{}, named: map[string][]string{}}
}

func (d *decls) typ(pkg, name string) *typeDecl {
	key := pkg + "." + name
	td := d.types[key]
	if td == nil {
		td = &typeDecl{members: map[string]bool{}}
		d.types[key] = td
		d.named[name] = append(d.named[name], key)
	}
	return td
}

// parseDir adds the declarations of dir's non-test Go files.
func (d *decls) parseDir(dir string) error {
	fset := token.NewFileSet()
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") || strings.HasSuffix(e.Name(), "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, e.Name()), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		d.addFile(f)
	}
	return nil
}

func (d *decls) addFile(f *ast.File) {
	pkg := f.Name.Name
	if d.top[pkg] == nil {
		d.top[pkg] = map[string]bool{}
	}
	for _, decl := range f.Decls {
		switch decl := decl.(type) {
		case *ast.FuncDecl:
			if decl.Recv == nil {
				d.top[pkg][decl.Name.Name] = true
			} else if recv := typeKey(pkg, decl.Recv.List[0].Type); recv != "" {
				p, typ, _ := strings.Cut(recv, ".")
				d.typ(p, typ).members[decl.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, spec := range decl.Specs {
				switch spec := spec.(type) {
				case *ast.ValueSpec:
					for _, n := range spec.Names {
						d.top[pkg][n.Name] = true
					}
				case *ast.TypeSpec:
					d.top[pkg][spec.Name.Name] = true
					d.addType(d.typ(pkg, spec.Name.Name), pkg, spec.Type)
				}
			}
		}
	}
}

func (d *decls) addType(td *typeDecl, pkg string, expr ast.Expr) {
	var fields *ast.FieldList
	switch x := expr.(type) {
	case *ast.StructType:
		fields = x.Fields
	case *ast.InterfaceType:
		fields = x.Methods
	default: // an alias or a defined type: it has its target's members
		if k := typeKey(pkg, expr); k != "" {
			td.embeds = append(td.embeds, k)
		}
		return
	}
	for _, f := range fields.List {
		for _, n := range f.Names {
			td.members[n.Name] = true
		}
		if len(f.Names) == 0 {
			if k := typeKey(pkg, f.Type); k != "" {
				_, typ, _ := strings.Cut(k, ".")
				td.members[typ] = true
				td.embeds = append(td.embeds, k)
			}
		}
	}
}

// typeKey names the type expr refers to as "package.Type", or "" for a
// type literal.
func typeKey(pkg string, expr ast.Expr) string {
	for {
		switch x := expr.(type) {
		case *ast.StarExpr:
			expr = x.X
		case *ast.IndexExpr:
			expr = x.X
		case *ast.IndexListExpr:
			expr = x.X
		case *ast.Ident:
			return pkg + "." + x.Name
		case *ast.SelectorExpr:
			if id, ok := x.X.(*ast.Ident); ok {
				return id.Name + "." + x.Sel.Name
			}
			return ""
		default:
			return ""
		}
	}
}

// resolves reports whether q.n names a top-level declaration of a
// package q or a member of a type q.
func (d *decls) resolves(qn string) bool {
	q, n, _ := strings.Cut(qn, ".")
	if d.top[q][n] {
		return true
	}
	for _, key := range d.named[q] {
		if d.hasMember(key, n, map[string]bool{}) {
			return true
		}
	}
	return false
}

func (d *decls) hasMember(key, member string, seen map[string]bool) bool {
	td := d.types[key]
	if td == nil || seen[key] {
		return false
	}
	seen[key] = true
	if td.members[member] {
		return true
	}
	for _, e := range td.embeds {
		if d.hasMember(e, member, seen) {
			return true
		}
	}
	return false
}

// stdlibDeclares reports whether pkg.Name is a top-level declaration of
// a standard library package with that name.
func stdlibDeclares(t *testing.T, qn string) bool {
	t.Helper()
	q, n, _ := strings.Cut(qn, ".")
	src := filepath.Join(build.Default.GOROOT, "src")
	found := false
	err := filepath.WalkDir(src, func(path string, e fs.DirEntry, err error) error {
		if err != nil || !e.IsDir() {
			return err
		}
		switch e.Name() {
		case "internal", "vendor", "testdata", "cmd":
			return filepath.SkipDir
		}
		if e.Name() != q {
			return nil
		}
		std := newDecls()
		if err := std.parseDir(path); err != nil {
			return err
		}
		if found = std.top[q][n]; found {
			return fs.SkipAll
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return found
}

// The predictor names the doc comment of Config.PredictorName offers
// as examples must each build a valid configuration through the
// Predictor option.
func TestPredictorDocNamesValidate(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), filepath.Join("internal", "config", "config.go"), nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var doc string
	ast.Inspect(f, func(n ast.Node) bool {
		if field, ok := n.(*ast.Field); ok && len(field.Names) == 1 && field.Names[0].Name == "PredictorName" {
			doc = field.Doc.Text() + field.Comment.Text()
		}
		return true
	})
	names := regexp.MustCompile(`"([^"]+)"`).FindAllStringSubmatch(doc, -1)
	if len(names) == 0 {
		t.Fatalf("PredictorName's doc comment names no predictor:\n%s", doc)
	}
	for _, m := range names {
		g := eole.Grid{Axes: []eole.Axis{{Option: "Predictor", Values: []any{m[1]}}}}
		if _, err := g.Configs(); err != nil {
			t.Errorf("PredictorName's doc offers %q: %v", m[1], err)
		}
	}
}
