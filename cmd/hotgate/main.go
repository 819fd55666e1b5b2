// Command hotgate cross-checks the zero-allocation contract's two
// halves: every function marked //speedlight:hotpath must be named by
// a //speedlight:allocgate annotation on an allocation-gated test, and
// every allocgate name must still refer to a hotpath function.
//
// The hotpath directive is a promise ("this path allocates nothing in
// steady state") that the hotalloc analyzer checks structurally; the
// allocgate annotation records which AllocsPerRun test proves the
// promise empirically. hotgate fails CI when a
// hotpath function has no empirical gate, or when an annotation has
// gone stale after a rename.
//
// Usage:
//
//	hotgate [-cover] [root]
//
// With -cover, each gate then runs alone under go test with coverage
// of the packages its names live in, and a name whose function ran no
// statement fails: a gate that never runs a path proves nothing about
// its allocations.
//
// Names are canonical "pkg.Recv.Func" (methods) or "pkg.Func"
// (functions), matching the directive docs in DESIGN.md §9. The walk
// is purely syntactic — no type checking — so it runs in milliseconds
// and sees every build-tagged file.
package main

import (
	"errors"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

type site struct {
	pos  token.Position
	name string // canonical function name (hotpath) or gate name (allocgate)
}

// span is a function's lines in a file named by its slash path in the
// module.
type span struct {
	file     string
	from, to int
}

// gateFunc is one annotated test and the names it gates.
type gateFunc struct {
	dir, fn string
	names   []string
}

func main() {
	cover := flag.Bool("cover", false, "run each gate and fail on a named function it never executes")
	flag.Parse()
	root := "."
	if flag.NArg() > 0 {
		root = flag.Arg(0)
	}
	hot := map[string]token.Position{} // hotpath fn -> decl position
	body := map[string]span{}          // hotpath fn -> its lines
	var gates []*gateFunc              // for -cover
	gated := map[string][]string{}     // hotpath fn -> gate test names
	var annotations []site             // every allocgate name, for staleness
	misplaced := []site{}              // allocgate outside a Test

	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case "testdata", ".git", "bin", "vendor":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		isTest := strings.HasSuffix(path, "_test.go")
		rel, _ := filepath.Rel(root, path) // path is under root
		rel = filepath.ToSlash(rel)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Doc == nil {
				continue
			}
			var g *gateFunc
			for _, c := range fd.Doc.List {
				line := strings.TrimPrefix(c.Text, "//")
				fields := strings.Fields(line)
				if len(fields) == 0 {
					continue
				}
				switch fields[0] {
				case "speedlight:hotpath":
					if !isTest {
						name := canonical(f.Name.Name, fd)
						hot[name] = fset.Position(fd.Pos())
						body[name] = span{rel, hot[name].Line, fset.Position(fd.End()).Line}
					}
				case "speedlight:allocgate":
					gate := f.Name.Name + "." + fd.Name.Name
					if !isTest || !strings.HasPrefix(fd.Name.Name, "Test") {
						misplaced = append(misplaced, site{fset.Position(c.Pos()), gate})
						continue
					}
					if g == nil {
						g = &gateFunc{dir: "./" + filepath.Dir(rel), fn: fd.Name.Name}
						gates = append(gates, g)
					}
					g.names = append(g.names, fields[1:]...)
					for _, name := range fields[1:] {
						gated[name] = append(gated[name], gate)
						annotations = append(annotations, site{fset.Position(c.Pos()), name})
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	bad := 0
	var uncovered []site
	for name, pos := range hot {
		if len(gated[name]) == 0 {
			uncovered = append(uncovered, site{pos, name})
		}
	}
	sort.Slice(uncovered, func(i, j int) bool { return uncovered[i].name < uncovered[j].name })
	for _, u := range uncovered {
		fmt.Printf("%s: //speedlight:hotpath %s has no allocation gate: annotate the AllocsPerRun test that exercises it with //speedlight:allocgate %s\n",
			u.pos, u.name, u.name)
		bad++
	}
	for _, a := range annotations {
		if _, ok := hot[a.name]; !ok {
			fmt.Printf("%s: stale //speedlight:allocgate name %s: no such //speedlight:hotpath function (renamed or unmarked?)\n",
				a.pos, a.name)
			bad++
		}
	}
	for _, m := range misplaced {
		fmt.Printf("%s: //speedlight:allocgate on %s: the annotation belongs on a Test function in a _test.go file\n",
			m.pos, m.name)
		bad++
	}
	if bad == 0 && *cover {
		for _, g := range gates {
			bad += runGate(root, g, body)
		}
	}
	if bad > 0 {
		os.Exit(1)
	}
	fmt.Printf("hotgate: %d hotpath functions covered by %d gates\n", len(hot), len(gates))
}

// runGate runs one gate alone with coverage of the packages its names
// live in, and reports each name whose function ran no statement.
func runGate(root string, g *gateFunc, body map[string]span) int {
	var pkgs []string
	for _, n := range g.names {
		pkgs = append(pkgs, "./"+path.Dir(body[n].file))
	}
	prof := filepath.Join(os.TempDir(), fmt.Sprintf("hotgate-%d.cover", os.Getpid()))
	defer os.Remove(prof)
	out, err := exec.Command("go", "test", "-C", root, "-count=1", "-coverpkg="+strings.Join(pkgs, ","), "-coverprofile="+prof, g.dir, "-run=^"+g.fn+"$").CombinedOutput()
	mod, err2 := exec.Command("go", "list", "-C", root, "-m").Output()
	data, err3 := os.ReadFile(prof)
	if err = errors.Join(err, err2, err3); err != nil {
		fmt.Printf("%s %s: %v\n%s", g.dir, g.fn, err, out)
		return 1
	}
	hit := map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		var from, c0, to, c1, stmts, count int
		file, pos, _ := strings.Cut(strings.TrimPrefix(line, strings.TrimSpace(string(mod))+"/"), ":")
		if _, err := fmt.Sscanf(pos, "%d.%d,%d.%d %d %d", &from, &c0, &to, &c1, &stmts, &count); err != nil || count == 0 {
			continue
		}
		for _, n := range g.names {
			fn := body[n]
			hit[n] = hit[n] || file == fn.file && from >= fn.from && to <= fn.to
		}
	}
	bad := 0
	for _, n := range g.names {
		if !hit[n] {
			fmt.Printf("%s:%d: %s is named by the //speedlight:allocgate of %s, which never executes it\n", body[n].file, body[n].from, n, g.fn)
			bad++
		}
	}
	return bad
}

// canonical builds "pkg.Recv.Func" for methods and "pkg.Func" for
// plain functions.
func canonical(pkg string, fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return pkg + "." + fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	if s, ok := t.(*ast.StarExpr); ok {
		t = s.X
	}
	if ix, ok := t.(*ast.IndexExpr); ok { // generic receiver
		t = ix.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return pkg + "." + id.Name + "." + fd.Name.Name
	}
	return pkg + "." + fd.Name.Name
}
