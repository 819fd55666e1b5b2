package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

func TestPkgScope(t *testing.T) {
	cases := []struct {
		path, want string
	}{
		{"speedlight/internal/core", "core"},
		{"speedlight/internal/core [speedlight/internal/core.test]", "core"},
		{"speedlight/internal/core.test", "core.test"},
		{"core", "core"},
		{"core [core.test]", "core"},
	}
	for _, c := range cases {
		if got := pkgScope(c.path); got != c.want {
			t.Errorf("pkgScope(%q) = %q, want %q", c.path, got, c.want)
		}
	}
}

// TestProtocolTable monitors the two assumptions the scope table makes
// of the tree: every package it names exists (the rules bind to them by
// base name), and none the table marks locks declares a second mutex,
// so there is no acquisition order to get wrong. (lockorder's cycle
// rule and its call summaries went for want of that subject; git log -S
// reportCycles has them.)
func TestProtocolTable(t *testing.T) {
	for pkg, rules := range protocol {
		files, err := filepath.Glob(filepath.Join("..", pkg, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("protocol package %q: no source at ../%s (renamed?): %v", pkg, pkg, err)
		}
		if !rules.locks {
			continue
		}
		mutexes := 0
		for _, name := range files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(token.NewFileSet(), name, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Mutex" || sel.Sel.Name == "RWMutex") {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == "sync" {
						mutexes++
					}
				}
				return true
			})
		}
		if mutexes > 1 {
			t.Errorf("package %s declares %d mutexes: an acquisition order now exists and lockorder does not check it", pkg, mutexes)
		}
	}
}
