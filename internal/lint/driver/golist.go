package driver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

// ListedPackage is the subset of `go list -json` output the analyzer
// test harness consumes.
type ListedPackage struct {
	ImportPath string
	Export     string
	ImportMap  map[string]string
}

// GoList runs `go list -export -deps -json` over the patterns and
// returns every listed package. Export data is compiled as a side
// effect, giving the type checker gc export files for all dependencies.
func GoList(patterns []string) ([]*ListedPackage, error) {
	args := append([]string{"list", "-e", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %w", err)
	}
	var pkgs []*ListedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p ListedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list output: %w", err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

// ExportImporter builds a types importer that resolves import paths
// through importMap (identity when absent) and reads gc export data
// from packageFile. Both the unitchecker vet.cfg and `go list -export`
// provide exactly these two tables.
func ExportImporter(fset *token.FileSet, importMap, packageFile map[string]string) types.ImporterFrom {
	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := importMap[path]; ok {
			path = mapped
		}
		file, ok := packageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	return importer.ForCompiler(fset, "gc", lookup).(types.ImporterFrom)
}

// TypeCheck parses and type-checks one package from source, resolving
// imports via the provided importer. It returns the syntax, package,
// and filled-in type info.
func TypeCheck(fset *token.FileSet, importPath string, goFiles []string, imp types.Importer, goVersion string) (*CheckedPackage, error) {
	var files []*ast.File
	for _, name := range goFiles {
		f, err := ParseFile(fset, name)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := NewTypesInfo()
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", buildArch()),
	}
	if goVersion != "" {
		conf.GoVersion = goVersion
	}
	pkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", importPath, err)
	}
	return &CheckedPackage{Fset: fset, Files: files, Pkg: pkg, Info: info}, nil
}

// CheckedPackage is one fully type-checked package ready for analysis.
type CheckedPackage struct {
	Fset  *token.FileSet
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info
}

// NewTypesInfo allocates a types.Info with every map analyzers consult.
func NewTypesInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}

func buildArch() string {
	if a := os.Getenv("GOARCH"); a != "" {
		return a
	}
	out, err := exec.Command("go", "env", "GOARCH").Output()
	if err != nil {
		return "amd64"
	}
	return string(bytes.TrimSpace(out))
}

// absJoin resolves name against dir unless it is already absolute.
func absJoin(dir, name string) string {
	if filepath.IsAbs(name) {
		return name
	}
	return filepath.Join(dir, name)
}
