package lint

import (
	"cmp"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
)

// Main runs the suite under the protocol the go command expects of a
// vet tool (a standard-library replacement for x/tools' unitchecker).
// The go command calls the binary as
//
//	speedlightvet -V=full          # build-cache tool ID (handshake)
//	speedlightvet -flags           # supported analyzer flags (handshake)
//	speedlightvet <unit>.cfg       # one compilation unit, tests included
//
// Given anything else — package patterns, say — it prints the go vet
// line to use instead. Exit status: 0 clean, 1 operational failure,
// 2 diagnostics.
func Main() {
	const progname = "speedlightvet"
	args := os.Args[1:]
	switch {
	case len(args) == 1 && strings.HasPrefix(args[0], "-V"):
		printVersion(progname)
	case len(args) == 1 && args[0] == "-flags":
		// No analyzer exposes flags; an empty JSON list tells the go
		// command there is nothing to forward.
		fmt.Println("[]")
	case len(args) == 1 && strings.HasSuffix(args[0], ".cfg"):
		diags, err := runUnit(args[0])
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if diags > 0 {
			os.Exit(2)
		}
	default:
		exe, err := os.Executable()
		if err != nil {
			exe = os.Args[0]
		}
		patterns := "./..."
		if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
			patterns = strings.Join(args, " ")
		}
		fmt.Fprintf(os.Stderr, "%s is a go vet tool; run it as\n\n\tgo vet -vettool=%s %s\n",
			progname, exe, patterns)
		os.Exit(1)
	}
}

// printVersion emulates the `-V=full` contract from cmd/go's buildid
// check: the line must read "<name> version devel ... buildID=<hex>"
// so the go command can fingerprint the tool for vet result caching.
func printVersion(progname string) {
	h := sha256.New()
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			io.Copy(h, f)
			f.Close()
		}
	}
	fmt.Printf("%s version devel comments-go-here buildID=%02x\n", progname, h.Sum(nil))
}

// vetConfig is the part of the JSON the go command writes to
// $WORK/.../vet.cfg for each compilation unit that this driver reads.
// Field names must match cmd/go/internal/work's vetConfig exactly.
type vetConfig struct {
	Dir         string
	ImportPath  string
	GoFiles     []string
	ImportMap   map[string]string
	PackageFile map[string]string
	GoVersion   string

	SucceedOnTypecheckFailure bool

	VetxOnly   bool
	VetxOutput string
}

// runUnit analyzes one compilation unit described by a vet.cfg file
// and prints its findings as "pos: [analyzer] message". It must always
// write the VetxOutput file — even empty — because the go command
// treats a missing output as tool failure and caches on it.
func runUnit(cfgFile string) (int, error) {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		return 0, err
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return 0, fmt.Errorf("parsing %s: %w", cfgFile, err)
	}
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			return 0, fmt.Errorf("writing vetx output: %w", err)
		}
	}
	if cfg.VetxOnly {
		// Dependencies are analyzed only for facts, which this driver
		// does not implement; the (empty) vetx file is all cmd/go needs.
		return 0, nil
	}
	p, err := typeCheck(&cfg)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0, nil
		}
		return 0, err
	}
	var diags []diagnostic
	p.diags = &diags
	for _, a := range suite {
		p.analyzer, p.muted = a.name, false
		a.run(p)
	}
	// An analyzer may reach one finding along several paths of its
	// walk; identical ones are one finding.
	slices.SortFunc(diags, func(a, b diagnostic) int {
		return cmp.Or(cmp.Compare(a.pos, b.pos), cmp.Compare(a.analyzer, b.analyzer), cmp.Compare(a.message, b.message))
	})
	diags = slices.Compact(diags)
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: [%s] %s\n", p.fset.Position(d.pos), d.analyzer, d.message)
	}
	return len(diags), nil
}

// typeCheck parses (with comments: analyzers read directives) and
// type-checks the unit's files, resolving imports through the gc
// export data the go command compiled for it.
func typeCheck(cfg *vetConfig) (*pass, error) {
	p := &pass{
		fset: token.NewFileSet(),
		info: &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Implicits:  make(map[ast.Node]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Scopes:     make(map[ast.Node]*types.Scope),
		},
	}
	for _, name := range cfg.GoFiles {
		if !filepath.IsAbs(name) {
			name = filepath.Join(cfg.Dir, name)
		}
		f, err := parser.ParseFile(p.fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	conf := types.Config{
		Importer:  importer.ForCompiler(p.fset, "gc", lookup),
		Sizes:     types.SizesFor("gc", cmp.Or(os.Getenv("GOARCH"), runtime.GOARCH)),
		GoVersion: cfg.GoVersion,
	}
	var err error
	if p.pkg, err = conf.Check(cfg.ImportPath, p.fset, p.files, p.info); err != nil {
		return nil, fmt.Errorf("typecheck %s: %w", cfg.ImportPath, err)
	}
	return p, nil
}
