// Package linttest is a stdlib-only analogue of
// golang.org/x/tools/go/analysis/analysistest: it runs one analyzer
// over golden packages under the analyzer's testdata/src directory and
// checks reported diagnostics against // want comments.
//
// Layout, mirroring analysistest:
//
//	<analyzer>/testdata/src/<pkg>/<files>.go
//
// Each directory under src is one package whose import path is its
// bare directory name; testdata packages may import each other by that
// name (e.g. a fake "packet" package) and may import the standard
// library, which is resolved through `go list -export`.
//
// Expectations are comments of the form
//
//	expr // want "regexp"
//	expr // want "first" "second"
//
// where each quoted (or backquoted) string is a regular expression that
// must match a diagnostic reported on that line. Diagnostics without a
// matching want, and wants without a matching diagnostic, fail the
// test.
package linttest

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"speedlight/internal/lint/analysis"
	"speedlight/internal/lint/driver"
)

// Run analyzes the named testdata packages (directories under
// testdata/src relative to the calling test) with a and compares
// diagnostics against // want expectations. Dependencies between
// testdata packages are loaded automatically; pkgs only names the
// packages whose diagnostics are checked.
func Run(t *testing.T, a *analysis.Analyzer, pkgs ...string) {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	w, err := newWorld(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		cp, err := w.check(pkg)
		if err != nil {
			t.Fatalf("loading testdata package %s: %v", pkg, err)
		}
		findings, err := driver.RunAnalyzers(cp, []*analysis.Analyzer{a})
		if err != nil {
			t.Fatalf("running %s on %s: %v", a.Name, pkg, err)
		}
		checkExpectations(t, w.fset, cp.Files, findings)
	}
}

// world loads and caches testdata packages plus stdlib export data.
type world struct {
	root    string
	fset    *token.FileSet
	checked map[string]*driver.CheckedPackage
	parsed  map[string][]*ast.File

	stdExports map[string]string // stdlib import path -> export file
	stdMap     map[string]string // vendored-path mapping from go list
}

func newWorld(root string) (*world, error) {
	return &world{
		root:    root,
		fset:    token.NewFileSet(),
		checked: make(map[string]*driver.CheckedPackage),
		parsed:  make(map[string][]*ast.File),
	}, nil
}

// parse parses all files of one testdata package.
func (w *world) parse(pkg string) ([]*ast.File, error) {
	if files, ok := w.parsed[pkg]; ok {
		return files, nil
	}
	dir := filepath.Join(w.root, pkg)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := driver.ParseFile(w.fset, filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	w.parsed[pkg] = files
	return files, nil
}

// isLocal reports whether path names a testdata package directory.
func (w *world) isLocal(path string) bool {
	st, err := os.Stat(filepath.Join(w.root, path))
	return err == nil && st.IsDir()
}

// check type-checks one testdata package, loading local and stdlib
// dependencies on demand.
func (w *world) check(pkg string) (*driver.CheckedPackage, error) {
	if cp, ok := w.checked[pkg]; ok {
		return cp, nil
	}
	files, err := w.parse(pkg)
	if err != nil {
		return nil, err
	}
	// Resolve imports first so the importer below only ever sees
	// packages that are already checked (testdata) or listed (stdlib).
	var std []string
	for _, f := range files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return nil, err
			}
			if w.isLocal(path) {
				if _, err := w.check(path); err != nil {
					return nil, err
				}
			} else {
				std = append(std, path)
			}
		}
	}
	if err := w.ensureStdExports(std); err != nil {
		return nil, err
	}
	info := driver.NewTypesInfo()
	conf := types.Config{Importer: (*worldImporter)(w)}
	p, err := conf.Check(pkg, w.fset, files, info)
	if err != nil {
		return nil, err
	}
	cp := &driver.CheckedPackage{Fset: w.fset, Files: files, Pkg: p, Info: info}
	w.checked[pkg] = cp
	return cp, nil
}

// ensureStdExports makes export data available for the given stdlib
// packages (and their dependencies) via one `go list -export` call per
// new batch.
func (w *world) ensureStdExports(paths []string) error {
	var missing []string
	for _, p := range paths {
		if _, ok := w.stdExports[p]; !ok {
			missing = append(missing, p)
		}
	}
	if len(missing) == 0 {
		return nil
	}
	listed, err := driver.GoList(missing)
	if err != nil {
		return err
	}
	if w.stdExports == nil {
		w.stdExports = make(map[string]string)
		w.stdMap = make(map[string]string)
	}
	for _, p := range listed {
		if p.Export != "" {
			w.stdExports[p.ImportPath] = p.Export
		}
		for from, to := range p.ImportMap {
			w.stdMap[from] = to
		}
	}
	return nil
}

// worldImporter resolves imports during testdata type checking:
// testdata packages come from the checked cache, everything else from
// stdlib export data.
type worldImporter world

func (wi *worldImporter) Import(path string) (*types.Package, error) {
	return wi.ImportFrom(path, "", 0)
}

func (wi *worldImporter) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	w := (*world)(wi)
	if cp, ok := w.checked[path]; ok {
		return cp.Pkg, nil
	}
	if w.isLocal(path) {
		return nil, fmt.Errorf("testdata package %q imported before being checked", path)
	}
	imp := driver.ExportImporter(w.fset, w.stdMap, w.stdExports)
	return imp.ImportFrom(path, dir, mode)
}

// expectation is one // want regexp at a file position.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	raw  string
	met  bool
}

var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)

// collectWants extracts // want expectations from the files' comments.
func collectWants(fset *token.FileSet, files []*ast.File) ([]*expectation, error) {
	var wants []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				patterns, err := splitPatterns(m[1])
				if err != nil {
					return nil, fmt.Errorf("%s: bad want: %v", pos, err)
				}
				for _, pat := range patterns {
					re, err := regexp.Compile(pat)
					if err != nil {
						return nil, fmt.Errorf("%s: bad want regexp: %v", pos, err)
					}
					wants = append(wants, &expectation{
						file: pos.Filename, line: pos.Line, re: re, raw: pat,
					})
				}
			}
		}
	}
	return wants, nil
}

// splitPatterns parses a sequence of Go string literals ("..." or
// `...`) separated by spaces.
func splitPatterns(s string) ([]string, error) {
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		if s[0] != '"' && s[0] != '`' {
			return nil, fmt.Errorf("expected string literal at %q", s)
		}
		quote := s[0]
		end := -1
		for i := 1; i < len(s); i++ {
			if s[i] == quote && (quote == '`' || s[i-1] != '\\') {
				end = i
				break
			}
		}
		if end < 0 {
			return nil, fmt.Errorf("unterminated string in %q", s)
		}
		lit, err := strconv.Unquote(s[:end+1])
		if err != nil {
			return nil, err
		}
		out = append(out, lit)
		s = strings.TrimSpace(s[end+1:])
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no patterns")
	}
	return out, nil
}

// checkExpectations matches diagnostics against wants and reports both
// kinds of mismatch.
func checkExpectations(t *testing.T, fset *token.FileSet, files []*ast.File, findings []analysis.Diagnostic) {
	t.Helper()
	wants, err := collectWants(fset, files)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range findings {
		pos := fset.Position(d.Pos)
		matched := false
		for _, wt := range wants {
			if wt.met || wt.file != pos.Filename || wt.line != pos.Line {
				continue
			}
			if wt.re.MatchString(d.Message) {
				wt.met = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s: unexpected diagnostic: %s", pos, d.Message)
		}
	}
	sort.Slice(wants, func(i, j int) bool {
		if wants[i].file != wants[j].file {
			return wants[i].file < wants[j].file
		}
		return wants[i].line < wants[j].line
	})
	for _, wt := range wants {
		if !wt.met {
			t.Errorf("%s:%d: no diagnostic matching %q", wt.file, wt.line, wt.raw)
		}
	}
}
