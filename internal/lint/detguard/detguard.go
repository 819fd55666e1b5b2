// Package detguard keeps the deterministic packages deterministic.
//
// Speedlight's conformance story (ROADMAP: seeded simulation runs must
// replay bit-identically, and the ideal-algorithm differential oracle
// depends on it) requires that protocol and simulation code never read
// ambient entropy. detguard flags, inside the deterministic packages:
//
//   - time.Now / time.Since — wall-clock reads; use the sim clock or an
//     injected now() func.
//   - package-level math/rand and math/rand/v2 functions — the global
//     generator is seeded from runtime entropy; use a seeded *rand.Rand.
//   - map iteration that appends to a slice which is never sorted in the
//     same function — Go randomizes map order, so the slice's order
//     leaks nondeterminism into output.
package detguard

import (
	"go/ast"
	"go/types"

	"speedlight/internal/lint/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "detguard",
	Doc: "flag wall-clock reads, global math/rand use, and unsorted map iteration " +
		"in the deterministic packages (core, dataplane, sim, emunet, node, control, observer)",
	Run: run,
}

// deterministic lists the package scope bases detguard applies to.
var deterministic = map[string]bool{
	"core":      true,
	"dataplane": true,
	"sim":       true,
	"emunet":    true,
	"node":      true,
	"control":   true,
	"observer":  true,
}

// seededCtors are the math/rand functions that build an explicitly
// seeded generator — the blessed path.
var seededCtors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !deterministic[analysis.PkgScope(pass.Pkg.Path())] {
		return nil, nil
	}
	for _, file := range pass.Files {
		if analysis.IsTestFile(pass.Fset, file) {
			continue // tests may time themselves and seed ad hoc
		}
		checkEntropyUses(pass, file)
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkMapOrder(pass, fd.Body)
			}
		}
	}
	return nil, nil
}

// checkEntropyUses flags references to wall-clock and global-rand
// functions anywhere in the file.
func checkEntropyUses(pass *analysis.Pass, file *ast.File) {
	ast.Inspect(file, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		switch fn.Pkg().Path() {
		case "time":
			if fn.Name() == "Now" || fn.Name() == "Since" {
				pass.Reportf(id.Pos(),
					"time.%s in deterministic package: read the sim clock or an injected now() instead",
					fn.Name())
			}
		case "math/rand", "math/rand/v2":
			sig, ok := fn.Type().(*types.Signature)
			if !ok || sig.Recv() != nil {
				return true // methods on an explicit *rand.Rand are fine
			}
			if !seededCtors[fn.Name()] {
				pass.Reportf(id.Pos(),
					"global rand.%s in deterministic package: draw from a seeded *rand.Rand so runs replay",
					fn.Name())
			}
		}
		return true
	})
}

// checkMapOrder flags `for k := range m` loops that append to a local
// slice never passed to a sort call within the same function.
func checkMapOrder(pass *analysis.Pass, body *ast.BlockStmt) {
	type suspect struct {
		loop  *ast.RangeStmt
		slice types.Object
	}
	var suspects []suspect

	ast.Inspect(body, func(n ast.Node) bool {
		loop, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.TypesInfo.Types[loop.X].Type
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
			if !ok || !isBuiltinAppend(pass.TypesInfo, call) {
				return true
			}
			dst, ok := asg.Lhs[0].(*ast.Ident)
			if !ok {
				return true
			}
			if obj := pass.TypesInfo.Uses[dst]; obj != nil {
				suspects = append(suspects, suspect{loop: loop, slice: obj})
			} else if obj := pass.TypesInfo.Defs[dst]; obj != nil {
				suspects = append(suspects, suspect{loop: loop, slice: obj})
			}
			return true
		})
		return true
	})

	for _, s := range suspects {
		if !sortedInFunc(pass, body, s.slice) {
			pass.Reportf(s.loop.For,
				"map iteration order feeds %s without a sort in this function: Go randomizes map order, so output order is nondeterministic",
				s.slice.Name())
		}
	}
}

func isBuiltinAppend(info *types.Info, call *ast.CallExpr) bool {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

// sortedInFunc reports whether the function body contains a call into
// package sort or slices whose arguments reference obj.
func sortedInFunc(pass *analysis.Pass, body *ast.BlockStmt, obj types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			ast.Inspect(arg, func(a ast.Node) bool {
				if id, ok := a.(*ast.Ident); ok && pass.TypesInfo.Uses[id] == obj {
					found = true
				}
				return !found
			})
		}
		return !found
	})
	return found
}
