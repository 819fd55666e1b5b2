// Package driver runs Speedlight's analyzers under the protocol the go
// command expects of a vet tool. It is a standard-library replacement
// for golang.org/x/tools/go/analysis/unitchecker.
//
// The binary built from cmd/speedlightvet is run by the go command:
//
//	go vet -vettool=bin/speedlightvet ./...
//
// which calls it as
//
//	speedlightvet -V=full          # build-cache tool ID (handshake)
//	speedlightvet -flags           # supported analyzer flags (handshake)
//	speedlightvet <unit>.cfg       # one compilation unit, tests included
//
// Given anything else — package patterns, say — it prints the go vet
// line to use instead.
package driver

import (
	"crypto/sha256"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"os"
	"sort"
	"strings"

	"speedlight/internal/lint/analysis"
)

// Main dispatches on the invocation shape and exits with the
// appropriate status: 0 clean, 1 operational failure, 2 diagnostics.
func Main(analyzers ...*analysis.Analyzer) {
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
		diags, err := runUnit(args[0], analyzers)
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

// RunAnalyzers applies every analyzer to one checked package and
// returns the diagnostics sorted by position.
func RunAnalyzers(cp *CheckedPackage, analyzers []*analysis.Analyzer) ([]analysis.Diagnostic, error) {
	var diags []analysis.Diagnostic
	for _, a := range analyzers {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      cp.Fset,
			Files:     cp.Files,
			Pkg:       cp.Pkg,
			TypesInfo: cp.Info,
			Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
		}
		if _, err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s: %w", a.Name, err)
		}
	}
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags, nil
}

// ParseFile parses one file with comments (analyzers read directives).
func ParseFile(fset *token.FileSet, name string) (*ast.File, error) {
	return parser.ParseFile(fset, name, nil, parser.ParseComments)
}
