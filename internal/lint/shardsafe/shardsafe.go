// Package shardsafe is the compile-time twin of sim.Parallel's runtime
// causality panics: code reachable from a shard worker entry point must
// not touch state or APIs that only the serialized GlobalDomain may.
//
// Entry points are declared with //speedlight:shard on the event
// callbacks a parallel worker fires (the emunet arrive/tx/deliver
// trampolines, Parallel's own worker loop). From those roots shardsafe
// walks the same-package static call graph and, in every reachable
// function, flags:
//
//   - writes to package-level mutable state (assignment, ++/--, or
//     delete on a package-level variable): shard workers run
//     concurrently, and the repo's single-writer discipline reserves
//     package state for the global domain (reads are allowed — values
//     like emunet's cpNotifLatency distribution are built at package
//     initialization and never reassigned);
//
//   - calls to functions marked //speedlight:global-only (anomaly
//     detection, timeout handling — logic that must observe a total
//     event order);
//
//   - calls to the engine-facing sim API (methods on sim.Sim,
//     sim.Engine, or sim.Parallel: Now, Rand, Schedule, After, Cancel,
//     NewTicker, Run, ...): worker code must go through its sim.Proc,
//     whose Send/SendCall/SendAt methods are the blessed cross-shard
//     handoff that the runtime routes through per-pair SPSC rings;
//
//   - direct touches of the engine's shard table or global queue (the
//     sim Parallel fields named shards / global): a worker owns exactly
//     one shard, and every cross-shard or shard-to-global event must
//     travel a pair ring — pushing into another shard's queue directly
//     bypasses the ring protocol's ordering and memory-publication
//     guarantees. The handful of functions that ARE the handoff
//     protocol (sendAt's routing switch, the home-shard lookup) declare
//     themselves with //speedlight:shard-handoff, which exempts them
//     from this one rule while the others still apply.
//
// The call graph is intraprocedural per package and purely static:
// calls through function values or interfaces other than the sim API
// are not followed (the event-callback indirection is exactly what the
// //speedlight:shard marks pin down). Each finding names the entry
// point that makes the function shard-reachable so the path is
// auditable.
package shardsafe

import (
	"go/ast"
	"go/types"
	"sort"

	"speedlight/internal/lint/analysis"
	"speedlight/internal/lint/flow"
)

var Analyzer = &analysis.Analyzer{
	Name: "shardsafe",
	Doc: "prove code reachable from //speedlight:shard worker entry points " +
		"does not write package-level state, call //speedlight:global-only " +
		"functions, or use the engine API outside the blessed Proc send path",
	Run: run,
}

// handoffFields are the sim.Parallel fields only the coordinator (or a
// //speedlight:shard-handoff function) may touch from shard-reachable
// code: the shard table and the global domain's queue state.
var handoffFields = map[string]bool{"shards": true, "global": true}

// globalOnlyAPI are the sim engine methods reserved for the global
// domain / driver; Proc's methods (Send, SendCall, SendAt, Schedule,
// After, Cancel, NewTicker on the Proc interface) are the blessed
// worker-side path and are never flagged.
var globalOnlyAPI = map[string]bool{
	"Now": true, "Rand": true, "NewRand": true,
	"Schedule": true, "After": true, "Cancel": true, "NewTicker": true,
	"Run": true, "RunUntil": true, "RunFor": true,
	"Fired": true, "Pending": true,
}

// engineRecv are the sim receiver types whose methods form the
// global-side engine API.
var engineRecv = map[string]bool{"Sim": true, "Engine": true, "Parallel": true}

type fnNode struct {
	fn      *types.Func
	decl    *ast.FuncDecl
	name    string
	shard   bool // //speedlight:shard
	global  bool // //speedlight:global-only
	handoff bool // //speedlight:shard-handoff
}

func run(pass *analysis.Pass) (interface{}, error) {
	nodes := map[*types.Func]*fnNode{}
	var order []*fnNode
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			name := fd.Name.Name
			if fd.Recv != nil {
				name = recvName(fd) + "." + name
			}
			n := &fnNode{fn: fn, decl: fd, name: name}
			_, n.shard = flow.Directive(fd.Doc, "shard")
			_, n.global = flow.Directive(fd.Doc, "global-only")
			_, n.handoff = flow.Directive(fd.Doc, "shard-handoff")
			nodes[fn] = n
			order = append(order, n)
		}
	}

	// Same-package call graph: a reference to a function (called or
	// taken as a value) makes it reachable.
	succs := map[*fnNode][]*fnNode{}
	for _, n := range order {
		seen := map[*fnNode]bool{}
		ast.Inspect(n.decl.Body, func(sub ast.Node) bool {
			id, ok := sub.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
			if !ok {
				return true
			}
			if callee, ok := nodes[fn]; ok && !seen[callee] {
				seen[callee] = true
				succs[n] = append(succs[n], callee)
			}
			return true
		})
	}

	// Reachability from shard entries, remembering one witness entry
	// per function for the diagnostic.
	entryFor := map[*fnNode]string{}
	var queue []*fnNode
	for _, n := range order {
		if n.shard {
			entryFor[n] = n.name
			queue = append(queue, n)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, s := range succs[n] {
			if _, ok := entryFor[s]; !ok {
				entryFor[s] = entryFor[n]
				queue = append(queue, s)
			}
		}
	}

	// Deterministic order: declaration order of reachable functions.
	var reachable []*fnNode
	for _, n := range order {
		if _, ok := entryFor[n]; ok {
			reachable = append(reachable, n)
		}
	}
	sort.SliceStable(reachable, func(i, j int) bool {
		return reachable[i].decl.Pos() < reachable[j].decl.Pos()
	})

	for _, n := range reachable {
		check(pass, nodes, n, entryFor[n])
	}
	return nil, nil
}

// check flags the three violation classes inside one shard-reachable
// function.
func check(pass *analysis.Pass, nodes map[*types.Func]*fnNode, n *fnNode, entry string) {
	via := ""
	if n.name != entry {
		via = " (reachable from //speedlight:shard entry " + entry + ")"
	} else {
		via = " (//speedlight:shard entry point)"
	}
	ast.Inspect(n.decl.Body, func(sub ast.Node) bool {
		switch s := sub.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				if v := pkgLevelTarget(pass, lhs); v != nil {
					pass.Reportf(lhs.Pos(), "shard-reachable %s writes package-level %s%s: shard workers run concurrently; route mutations through a GlobalDomain event", n.name, v.Name(), via)
				}
			}
		case *ast.IncDecStmt:
			if v := pkgLevelTarget(pass, s.X); v != nil {
				pass.Reportf(s.Pos(), "shard-reachable %s writes package-level %s%s: shard workers run concurrently; route mutations through a GlobalDomain event", n.name, v.Name(), via)
			}
		case *ast.CallExpr:
			if id, ok := builtinIdent(pass, s); ok && id == "delete" && len(s.Args) > 0 {
				if v := pkgLevelTarget(pass, s.Args[0]); v != nil {
					pass.Reportf(s.Pos(), "shard-reachable %s writes package-level %s%s: shard workers run concurrently; route mutations through a GlobalDomain event", n.name, v.Name(), via)
				}
			}
			fn := calleeFunc(pass.TypesInfo, s)
			if fn == nil {
				return true
			}
			if callee, ok := nodes[fn]; ok && callee.global {
				pass.Reportf(s.Pos(), "shard-reachable %s calls //speedlight:global-only %s%s: this logic needs the total event order of the global domain", n.name, callee.name, via)
			}
			if isEngineAPI(fn) {
				pass.Reportf(s.Pos(), "shard-reachable %s calls sim engine API %s%s: worker code must use its Proc (Send/SendCall/SendAt) so the runtime can route across shards", n.name, fn.Name(), via)
			}
		case *ast.SelectorExpr:
			if n.handoff {
				return true
			}
			if f := handoffField(pass, s); f != "" {
				pass.Reportf(s.Pos(), "shard-reachable %s touches Parallel.%s directly%s: cross-shard events must travel the pair ring handoff (pushRing), not another shard's queue; blessed implementations declare //speedlight:shard-handoff", n.name, f, via)
			}
		}
		return true
	})
}

// handoffField reports whether sel reads one of sim.Parallel's
// coordinator-owned fields (the shard table or the global shard),
// returning the field name when it does.
func handoffField(pass *analysis.Pass, sel *ast.SelectorExpr) string {
	if !handoffFields[sel.Sel.Name] {
		return ""
	}
	v, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Var)
	if !ok || !v.IsField() || v.Pkg() == nil {
		return ""
	}
	if analysis.PkgScope(v.Pkg().Path()) != "sim" {
		return ""
	}
	return v.Name()
}

// pkgLevelTarget resolves an assignment target to the package-level
// variable it mutates, if any: a bare package var, or an index/field/
// deref rooted at one (writing p.X or m[k] mutates the shared object
// the package var names).
func pkgLevelTarget(pass *analysis.Pass, e ast.Expr) *types.Var {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SelectorExpr:
			// Only follow when the base is a package-level var in
			// this package (pkg.Var.Field); a selector on a local
			// (es.sw.state) is the local's object graph, not ours.
			e = x.X
		case *ast.Ident:
			v, ok := pass.TypesInfo.Uses[x].(*types.Var)
			if !ok || v.IsField() {
				return nil
			}
			if v.Parent() == pass.Pkg.Scope() {
				return v
			}
			return nil
		default:
			return nil
		}
	}
}

// isEngineAPI reports whether fn is a global-side method of the sim
// engine (receiver Sim/Engine/Parallel in package sim).
func isEngineAPI(fn *types.Func) bool {
	if fn.Pkg() == nil || analysis.PkgScope(fn.Pkg().Path()) != "sim" {
		return false
	}
	if !globalOnlyAPI[fn.Name()] {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return engineRecv[n.Obj().Name()]
	}
	return false
}

func builtinIdent(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	id, ok := call.Fun.(*ast.Ident)
	if !ok {
		return "", false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	if !ok {
		return "", false
	}
	return b.Name(), true
}

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

func recvName(fd *ast.FuncDecl) string {
	if len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if s, ok := t.(*ast.StarExpr); ok {
		t = s.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
