// Package lint is Speedlight's protocol-invariant analyzer suite.
//
// Each analyzer encodes one rule from the Synchronized Network
// Snapshots paper (SIGCOMM 2018) as a compile-time check; see
// DESIGN.md's "Static analysis" section for the mapping. The suite is
// one binary, cmd/speedlightvet, and one way to run it:
//
//	go vet -vettool=bin/speedlightvet ./...
//
// (`make lint`). The golden tests beside each analyzer's testdata and
// the real-tree kill-rate (killrate_test.go) run that same command, so
// there is one loader: the go command's. The repository builds from the
// standard library alone, so this file and vet.go stand in for the
// parts of golang.org/x/tools/go/analysis the suite needs: every
// analyzer is a single-package syntax+types pass, with no facts.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// analyzer is one static check; its file is named after it.
type analyzer struct {
	name string
	run  func(*pass)
}

// suite is every analyzer speedlightvet runs: the syntactic
// single-pass checks first, then the CFG/dataflow analyzers built on
// internal/lint/flow.
var suite = []*analyzer{
	wrappedcmp,
	journalctor,
	detguard,
	hotalloc,
	poolown,
	lockorder,
	shardsafe,
}

// protocol is the one table binding rules to the protocol packages,
// keyed by pkgScope: deterministic packages must replay bit-identically
// from a seed (detguard); locks marks the packages whose locking
// discipline the snapshot protocol's correctness and the data plane's
// non-blocking argument depend on (lockorder). Rules that name the
// package a type or function is *declared* in (journal.Event,
// packet.WireID, sim.eventPool, ...) say so at the rule.
var protocol = map[string]struct{ deterministic, locks bool }{
	"core":      {deterministic: true},
	"control":   {deterministic: true},
	"observer":  {deterministic: true},
	"dataplane": {deterministic: true, locks: true},
	"sim":       {deterministic: true, locks: true},
	"emunet":    {deterministic: true, locks: true},
	"node":      {deterministic: true, locks: true},
	"live":      {locks: true},
	"wire":      {locks: true},
	"snapstore": {locks: true},
	"packet":    {locks: true},
}

// pass carries one package's syntax and type information to an
// analyzer's run function.
type pass struct {
	fset  *token.FileSet
	files []*ast.File
	pkg   *types.Package
	info  *types.Info

	analyzer string
	diags    *[]diagnostic
	// muted drops reports: a dataflow step sets it while flow.Solve's
	// fixpoint revisits nodes, and clears it for the one reporting pass.
	muted bool
}

// diagnostic is one finding at a source position.
type diagnostic struct {
	pos      token.Pos
	analyzer string
	message  string
}

// reportf reports a formatted diagnostic at pos.
func (p *pass) reportf(pos token.Pos, format string, args ...any) {
	if p.muted {
		return
	}
	*p.diags = append(*p.diags, diagnostic{pos, p.analyzer, fmt.Sprintf(format, args...)})
}

// scope is the analyzed package's pkgScope.
func (p *pass) scope() string { return pkgScope(p.pkg.Path()) }

// isTest reports whether n lives in a _test.go file.
func (p *pass) isTest(n ast.Node) bool {
	return strings.HasSuffix(p.fset.File(n.Pos()).Name(), "_test.go")
}

// eachFunc calls f for every function declaration with a body.
func (p *pass) eachFunc(f func(fd *ast.FuncDecl)) {
	for _, file := range p.files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				f(fd)
			}
		}
	}
}

// pkgScope returns the last element of a package import path with any
// test-variant suffix removed: both
// "speedlight/internal/core [speedlight/internal/core.test]" and
// "speedlight/internal/core" scope to "core". Analyzers use it to match
// the protocol packages their rules apply to, which also makes the
// rules hold for the single-element fake packages under testdata.
func pkgScope(importPath string) string {
	if i := strings.Index(importPath, " ["); i >= 0 {
		importPath = importPath[:i]
	}
	if i := strings.LastIndex(importPath, "/"); i >= 0 {
		importPath = importPath[i+1:]
	}
	return importPath
}

// calleeFunc resolves the function or method a call statically
// invokes, if any.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}

// builtinName returns the name of the builtin a call invokes, or "".
func builtinName(info *types.Info, call *ast.CallExpr) string {
	if id, ok := call.Fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			return b.Name()
		}
	}
	return ""
}

// namedIn reports whether t (through an alias) is the named type name
// declared in a package whose pkgScope is scope.
func namedIn(t types.Type, scope, name string) bool {
	if t == nil {
		return false
	}
	named, ok := types.Unalias(t).(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Name() == name && pkgScope(named.Obj().Pkg().Path()) == scope
}

// deref returns the element type of a pointer type, t itself otherwise.
func deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// recvIs reports whether fn is a method declared on the named type recv
// (or a pointer to it) of a package whose pkgScope is scope: the one
// way rules bind to "method M of type T".
func recvIs(fn *types.Func, scope, recv string) bool {
	if fn == nil {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() != nil && namedIn(deref(sig.Recv().Type()), scope, recv)
}

// funcLits collects every function literal under body, nested ones
// included: the CFG analyzers run each as its own context, because a
// literal executes on its own schedule (goroutine, callback), not
// under the enclosing frame's facts at the point of definition.
func funcLits(body *ast.BlockStmt) []*ast.FuncLit {
	var lits []*ast.FuncLit
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			lits = append(lits, lit)
		}
		return true
	})
	return lits
}
