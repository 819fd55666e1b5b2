package lint_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"speedlight/internal/lint/flow"
)

// TestNoTestOnlyExports keeps the production tree to what programs
// run: every exported function, type, variable, constant and method
// declared in a non-test file under internal/ must be named by some
// non-test file outside its own declaration, or carry a
// //speedlight:api line that says why it is exported anyway (encoding/
// json calls MarshalJSON by reflection; several packages' tests build
// the same fixture). An export only tests reach belongs in a _test.go
// file. This is a test over the whole module, not an analyzer: go vet
// hands an analyzer one package at a time, and the suite keeps no facts
// to carry a use in one package to the declaration in another.
func TestNoTestOnlyExports(t *testing.T) {
	r := testOnlyExports(t, "../..")
	for _, e := range r.unused {
		t.Errorf("%s: %s is named by no non-test file: delete it, move it into a _test.go file, or give it a //speedlight:api reason", e.pos, e.name)
	}
	t.Logf("test-only exports: %d of %d exported identifiers; %d kept by //speedlight:api", len(r.unused), r.total, r.kept)
}

// TestNoTestOnlyExportsFixture runs the rule on a planted module: it
// must report exactly the test-only exports planted there.
func TestNoTestOnlyExportsFixture(t *testing.T) {
	r := testOnlyExports(t, "testdata/exports")
	var got []string
	for _, e := range r.unused {
		got = append(got, e.name)
	}
	want := []string{"a.NoReason", "a.Orphan", "a.Self", "a.T.N", "a.TestOnly", "a.V2"}
	if !slices.Equal(got, want) {
		t.Errorf("flagged %v, want %v", got, want)
	}
	if r.total != 12 || r.kept != 1 {
		t.Errorf("total %d kept %d, want 12 and 1", r.total, r.kept)
	}
}

// export is one exported declaration and the span uses of it must lie
// outside of.
type export struct {
	name     string // "pkg.Name", or "pkg.Recv.Name" for a method
	key      string // import path + "." + Name; "." + Name for a method
	pos      token.Position
	from, to token.Pos
}

type exportReport struct {
	unused      []export
	total, kept int
}

// testOnlyExports parses the non-test files of the module at root,
// without type-checking, and returns the exports under internal/ that
// no non-test file names. A top-level name counts as named when it is
// used through its package's import qualifier, or bare inside its own
// package; a method counts when any .Name selector uses it.
func testOnlyExports(t *testing.T, root string) exportReport {
	t.Helper()
	mod := modulePath(t, root)
	type file struct {
		f   *ast.File
		pkg string // import path
	}
	var files []file
	pkgNames := map[string]string{} // import path -> package name
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (d.Name() == "testdata" || d.Name() == "bin" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, filepath.Dir(p)) // p is under root
		pkg := mod
		if rel != "." {
			pkg = path.Join(mod, filepath.ToSlash(rel))
		}
		pkgNames[pkg] = f.Name.Name
		files = append(files, file{f, pkg})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var r exportReport
	var decls []export
	internal := mod + "/internal/"
	declare := func(pkg, recv string, id *ast.Ident, doc []*ast.CommentGroup, from, to token.Pos) {
		if !id.IsExported() || !strings.HasPrefix(pkg, internal) {
			return
		}
		r.total++
		for _, d := range doc {
			if reason, ok := flow.Directive(d, "api"); ok && reason != "" {
				r.kept++
				return
			}
		}
		e := export{name: pkgNames[pkg] + "." + id.Name, key: pkg + "." + id.Name, pos: fset.Position(id.Pos()), from: from, to: to}
		if recv != "" {
			e.name, e.key = pkgNames[pkg]+"."+recv+"."+id.Name, "."+id.Name
		}
		decls = append(decls, e)
	}
	uses := map[string][]token.Pos{}
	for _, file := range files {
		imports := map[string]string{} // local name -> import path
		for _, is := range file.f.Imports {
			p := strings.Trim(is.Path.Value, `"`)
			name, ok := pkgNames[p]
			if !ok {
				name = path.Base(p)
			}
			if is.Name != nil {
				name = is.Name.Name
			}
			imports[name] = p
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				// A method's receiver does not name its type.
				if n.Type != nil {
					ast.Inspect(n.Type, visit)
				}
				if n.Body != nil {
					ast.Inspect(n.Body, visit)
				}
				return false
			case *ast.SelectorExpr:
				if id, ok := n.X.(*ast.Ident); ok && id.Obj == nil && imports[id.Name] != "" {
					uses[imports[id.Name]+"."+n.Sel.Name] = append(uses[imports[id.Name]+"."+n.Sel.Name], n.Pos())
				} else {
					ast.Inspect(n.X, visit)
				}
				uses["."+n.Sel.Name] = append(uses["."+n.Sel.Name], n.Pos())
				return false
			case *ast.Ident:
				uses[file.pkg+"."+n.Name] = append(uses[file.pkg+"."+n.Name], n.Pos())
			}
			return true
		}
		for _, d := range file.f.Decls {
			ast.Inspect(d, visit)
			switch d := d.(type) {
			case *ast.FuncDecl:
				recv := ""
				if d.Recv != nil && len(d.Recv.List) > 0 {
					recv = recvName(d.Recv.List[0].Type)
				}
				declare(file.pkg, recv, d.Name, []*ast.CommentGroup{d.Doc}, d.Pos(), d.End())
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						declare(file.pkg, "", s.Name, []*ast.CommentGroup{s.Doc, d.Doc}, s.Pos(), s.End())
					case *ast.ValueSpec:
						for _, id := range s.Names {
							declare(file.pkg, "", id, []*ast.CommentGroup{s.Doc, d.Doc}, s.Pos(), s.End())
						}
					}
				}
			}
		}
	}
	for _, e := range decls {
		if !slices.ContainsFunc(uses[e.key], func(p token.Pos) bool { return p < e.from || p >= e.to }) {
			r.unused = append(r.unused, e)
		}
	}
	slices.SortFunc(r.unused, func(a, b export) int { return strings.Compare(a.name, b.name) })
	return r
}

// recvName is the type name of a method receiver.
func recvName(x ast.Expr) string {
	switch x := x.(type) {
	case *ast.StarExpr:
		return recvName(x.X)
	case *ast.IndexExpr:
		return recvName(x.X)
	case *ast.IndexListExpr:
		return recvName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return ""
}

// modulePath reads the module line of root's go.mod.
func modulePath(t *testing.T, root string) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if mod, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(mod)
		}
	}
	t.Fatalf("%s/go.mod: no module line", root)
	return ""
}
