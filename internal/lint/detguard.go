package lint

import (
	"go/ast"
	"go/types"
)

// detguard keeps the deterministic packages deterministic.
//
// Speedlight's conformance story (ROADMAP: seeded simulation runs must
// replay bit-identically, and the ideal-algorithm differential oracle
// depends on it) requires that protocol and simulation code never read
// ambient entropy. detguard flags, inside the packages the protocol
// table marks deterministic:
//
//   - time.Now / time.Since — wall-clock reads; use the sim clock or an
//     injected now() func.
//   - package-level math/rand and math/rand/v2 functions — the global
//     generator is seeded from runtime entropy; use a seeded *rand.Rand.
//   - map iteration that appends to a slice which is never sorted in the
//     same function — Go randomizes map order, so the slice's order
//     leaks nondeterminism into output.
//
// Tests may time themselves and seed ad hoc, so _test.go files are
// exempt.
var detguard = &analyzer{name: "detguard", run: func(p *pass) {
	if !protocol[p.scope()].deterministic {
		return
	}
	for _, file := range p.files {
		if !p.isTest(file) {
			checkEntropyUses(p, file)
		}
	}
	p.eachFunc(func(fd *ast.FuncDecl) {
		if !p.isTest(fd) {
			checkMapOrder(p, fd.Body)
		}
	})
}}

// seededCtors are the math/rand functions that build an explicitly
// seeded generator — the blessed path.
var seededCtors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

// checkEntropyUses flags references to wall-clock and global-rand
// functions anywhere in the file, package-level initializers included.
func checkEntropyUses(p *pass, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		fn, ok := p.info.Uses[id].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		switch fn.Pkg().Path() {
		case "time":
			if fn.Name() == "Now" || fn.Name() == "Since" {
				p.reportf(id.Pos(),
					"time.%s in deterministic package: read the sim clock or an injected now() instead",
					fn.Name())
			}
		case "math/rand", "math/rand/v2":
			// Methods on an explicit *rand.Rand are fine.
			if fn.Type().(*types.Signature).Recv() == nil && !seededCtors[fn.Name()] {
				p.reportf(id.Pos(),
					"global rand.%s in deterministic package: draw from a seeded *rand.Rand so runs replay",
					fn.Name())
			}
		}
		return true
	})
}

// checkMapOrder flags `for k := range m` loops that append to a local
// slice never passed to a sort call within the same function.
func checkMapOrder(p *pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		loop, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := p.info.Types[loop.X].Type
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		ast.Inspect(loop.Body, func(m ast.Node) bool {
			asg, ok := m.(*ast.AssignStmt)
			if !ok || len(asg.Lhs) != 1 || len(asg.Rhs) != 1 {
				return true
			}
			call, ok := asg.Rhs[0].(*ast.CallExpr)
			if !ok || builtinName(p.info, call) != "append" {
				return true
			}
			dst, ok := asg.Lhs[0].(*ast.Ident)
			if !ok {
				return true
			}
			if obj := p.info.ObjectOf(dst); obj != nil && !sortedInFunc(p, body, obj) {
				p.reportf(loop.For,
					"map iteration order feeds %s without a sort in this function: Go randomizes map order, so output order is nondeterministic",
					obj.Name())
			}
			return true
		})
		return true
	})
}

// sortedInFunc reports whether the function body contains a call into
// package sort or slices whose arguments reference obj.
func sortedInFunc(p *pass, body *ast.BlockStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || found {
			return !found
		}
		fn := calleeFunc(p.info, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sort" && fn.Pkg().Path() != "slices" {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(a ast.Node) bool {
				if id, ok := a.(*ast.Ident); ok && p.info.Uses[id] == obj {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}
