package lint

import (
	"go/ast"
	"go/types"

	"speedlight/internal/lint/flow"
)

// shardsafe is the compile-time twin of sim.Parallel's runtime
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
var shardsafe = &analyzer{name: "shardsafe", run: runShardSafe}

// handoffFields are the sim.Parallel fields only the coordinator (or a
// //speedlight:shard-handoff function) may touch from shard-reachable
// code: the shard table and the global domain's queue state.
var handoffFields = map[string]bool{"shards": true, "global": true}

// globalOnlyAPI are the methods of the sim engine (receiver Sim, Engine
// or Parallel in package sim) reserved for the global domain / driver;
// Proc's methods (Send, SendCall, SendAt, Schedule,
// After, Cancel, NewTicker on the Proc interface) are the blessed
// worker-side path and are never flagged.
var globalOnlyAPI = map[string]bool{
	"Now": true, "Rand": true, "NewRand": true,
	"Schedule": true, "After": true, "Cancel": true, "NewTicker": true,
	"Run": true, "RunUntil": true, "RunFor": true,
	"Fired": true, "Pending": true,
}

type fnNode struct {
	decl    *ast.FuncDecl
	name    string
	shard   bool // //speedlight:shard
	global  bool // //speedlight:global-only
	handoff bool // //speedlight:shard-handoff
}

func runShardSafe(p *pass) {
	nodes := map[*types.Func]*fnNode{}
	var order []*fnNode // declaration order: deterministic findings
	p.eachFunc(func(fd *ast.FuncDecl) {
		fn, _ := p.info.Defs[fd.Name].(*types.Func)
		if fn == nil {
			return
		}
		n := &fnNode{decl: fd, name: fd.Name.Name}
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			if named, ok := deref(recv.Type()).(*types.Named); ok {
				n.name = named.Obj().Name() + "." + n.name
			}
		}
		_, n.shard = flow.Directive(fd.Doc, "shard")
		_, n.global = flow.Directive(fd.Doc, "global-only")
		_, n.handoff = flow.Directive(fd.Doc, "shard-handoff")
		nodes[fn] = n
		order = append(order, n)
	})

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
			fn, ok := p.info.Uses[id].(*types.Func)
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

	for _, n := range order {
		if entry, ok := entryFor[n]; ok {
			checkShardReachable(p, nodes, n, entry)
		}
	}
}

// checkShardReachable flags the violation classes inside one
// shard-reachable function.
func checkShardReachable(p *pass, nodes map[*types.Func]*fnNode, n *fnNode, entry string) {
	via := " (//speedlight:shard entry point)"
	if n.name != entry {
		via = " (reachable from //speedlight:shard entry " + entry + ")"
	}
	// write flags a mutation (assignment, ++/--, delete) of target when
	// it is rooted at a package-level variable.
	write := func(at ast.Node, target ast.Expr) {
		if v := pkgLevelTarget(p, target); v != nil {
			p.reportf(at.Pos(), "shard-reachable %s writes package-level %s%s: shard workers run concurrently; route mutations through a GlobalDomain event", n.name, v.Name(), via)
		}
	}
	ast.Inspect(n.decl.Body, func(sub ast.Node) bool {
		switch s := sub.(type) {
		case *ast.AssignStmt:
			for _, lhs := range s.Lhs {
				write(lhs, lhs)
			}
		case *ast.IncDecStmt:
			write(s, s.X)
		case *ast.CallExpr:
			if builtinName(p.info, s) == "delete" && len(s.Args) > 0 {
				write(s, s.Args[0])
			}
			fn := calleeFunc(p.info, s)
			if fn == nil {
				return true
			}
			if callee, ok := nodes[fn]; ok && callee.global {
				p.reportf(s.Pos(), "shard-reachable %s calls //speedlight:global-only %s%s: this logic needs the total event order of the global domain", n.name, callee.name, via)
			}
			if globalOnlyAPI[fn.Name()] && (recvIs(fn, "sim", "Sim") || recvIs(fn, "sim", "Engine") || recvIs(fn, "sim", "Parallel")) {
				p.reportf(s.Pos(), "shard-reachable %s calls sim engine API %s%s: worker code must use its Proc (Send/SendCall/SendAt) so the runtime can route across shards", n.name, fn.Name(), via)
			}
		case *ast.SelectorExpr:
			if n.handoff {
				return true
			}
			if f := handoffField(p, s); f != "" {
				p.reportf(s.Pos(), "shard-reachable %s touches Parallel.%s directly%s: cross-shard events must travel the pair ring handoff (pushRing), not another shard's queue; blessed implementations declare //speedlight:shard-handoff", n.name, f, via)
			}
		}
		return true
	})
}

// handoffField reports whether sel reads one of sim.Parallel's
// coordinator-owned fields (the shard table or the global shard),
// returning the field name when it does.
func handoffField(p *pass, sel *ast.SelectorExpr) string {
	if !handoffFields[sel.Sel.Name] {
		return ""
	}
	v, ok := p.info.Uses[sel.Sel].(*types.Var)
	if !ok || !v.IsField() || v.Pkg() == nil {
		return ""
	}
	if pkgScope(v.Pkg().Path()) != "sim" {
		return ""
	}
	return v.Name()
}

// pkgLevelTarget resolves an assignment target to the package-level
// variable it mutates, if any: a bare package var, or an index/field/
// deref rooted at one (writing p.X or m[k] mutates the shared object
// the package var names).
func pkgLevelTarget(p *pass, e ast.Expr) *types.Var {
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
			v, ok := p.info.Uses[x].(*types.Var)
			if !ok || v.IsField() {
				return nil
			}
			if v.Parent() == p.pkg.Scope() {
				return v
			}
			return nil
		default:
			return nil
		}
	}
}
