// Package lockorder proves two locking properties of the protocol
// packages (dataplane, node, live, wire, sim, snapstore, emunet, packet)
// on the CFG:
//
//  1. Unlock-on-every-path: a mutex acquired in a function must be
//     released (explicitly or by defer) on every return path. This
//     extends locksend's syntactic hold check to full path sensitivity
//     — the Lock; if err { return } early-exit bug class.
//
//  2. Acyclic acquisition order: acquiring lock B while holding lock A
//     adds the edge A→B to a package-level acquisition graph; lock
//     classes are (owner type, field) pairs, and edges propagate
//     interprocedurally through same-package calls via per-function
//     transitive acquire summaries. Any cycle is a potential deadlock
//     and is reported at the edge that closes it. Re-acquiring the
//     same mutex instance while it is must-held is reported
//     immediately as a self-deadlock.
//
// The held-set is a must analysis (intersection join): a lock is
// "held" at a point only if every path to that point acquired it, so
// both checks only fire on certainties, never on one branch of a
// conditional lock. Two limitations are deliberate: distinct instances
// of the same lock class are not ordered against each other (ordering
// within a class needs a runtime rank, not a static one), and a defer
// registered conditionally still discharges the exit obligation.
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"speedlight/internal/lint/analysis"
	"speedlight/internal/lint/flow"
)

var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc: "prove unlock-on-every-path and an acyclic lock-acquisition order " +
		"across the protocol packages (path-sensitive, defer-aware, with " +
		"interprocedural same-package acquire summaries)",
	Run: run,
}

// scoped lists the packages whose locking discipline the snapshot
// protocol's correctness argument depends on.
var scoped = map[string]bool{
	"dataplane": true,
	"node":      true,
	"live":      true,
	"wire":      true,
	"sim":       true,
	"snapstore": true,
	"emunet":    true,
	"packet":    true,
}

// lockKey is one held lock: class is the type-level identity used for
// ordering edges ("node.Collector.mu"); instance adds the receiver
// expression so re-acquire detection does not confuse two values of
// the same type ("c.mu").
type lockKey struct{ class, instance string }

func (k lockKey) encode() string { return k.class + "\x00" + k.instance }

func decodeKey(s string) lockKey {
	if i := strings.IndexByte(s, 0); i >= 0 {
		return lockKey{class: s[:i], instance: s[i+1:]}
	}
	return lockKey{class: s, instance: s}
}

// edge is one observed acquisition ordering: to was acquired while
// from was held.
type edge struct {
	from, to string
	pos      token.Pos
	viaCall  string // callee name when the edge crosses a call summary
}

// fnInfo is the per-function summary feeding the interprocedural pass.
type fnInfo struct {
	name     string
	acquires map[string]bool // lock classes acquired directly
	calls    []callSite
}

type callSite struct {
	callee *types.Func
	held   []lockKey
	pos    token.Pos
}

type checker struct {
	pass  *analysis.Pass
	fns   map[*types.Func]*fnInfo
	order []*types.Func // deterministic iteration
	edges []edge
}

func run(pass *analysis.Pass) (interface{}, error) {
	if !scoped[analysis.PkgScope(pass.Pkg.Path())] {
		return nil, nil
	}
	c := &checker{pass: pass, fns: map[*types.Func]*fnInfo{}}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			name := fd.Name.Name
			if fd.Recv != nil {
				name = recvName(fd) + "." + name
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			info := c.analyzeBody(fd.Body, name)
			if fn != nil {
				c.fns[fn] = info
				c.order = append(c.order, fn)
			}
			// Function literals hold no locks from the enclosing
			// frame when they run (goroutines, callbacks): analyze
			// each with a fresh held-set.
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					c.analyzeBody(lit.Body, name+".func")
					return false
				}
				return true
			})
		}
	}
	c.interprocedural()
	c.reportCycles()
	return nil, nil
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

// analyzeBody runs the must-held fixpoint over one body, reports
// per-function findings, and returns the interprocedural summary.
func (c *checker) analyzeBody(body *ast.BlockStmt, fname string) *fnInfo {
	cfg := flow.Build(body)
	info := &fnInfo{name: fname, acquires: map[string]bool{}}

	// Deferred unlocks discharge the exit obligation for their
	// instance on every path.
	deferUnlocked := map[string]bool{}
	for _, d := range cfg.Defers {
		if kind, recv := syncLockKind(c.pass.TypesInfo, d.Call); kind == "Unlock" || kind == "RUnlock" {
			deferUnlocked[c.key(fname, recv).encode()] = true
		}
	}

	tr := func(b *flow.Block, in flow.Fact) flow.Fact {
		held, _ := in.(flow.MustSet)
		if held == nil {
			held = flow.MustSet{}
		}
		for _, n := range b.Nodes {
			held = c.node(nil, held, n, fname)
		}
		return held
	}
	res, err := flow.Forward(cfg, flow.MustLattice, flow.MustSet{}, tr)
	if err != nil {
		return info
	}
	// Reporting pass with converged facts; this is also where the
	// summary (direct acquires, call sites with held-sets) is built,
	// exactly once per node.
	for _, b := range cfg.Blocks {
		in, ok := res.In[b]
		if !ok {
			continue
		}
		held, _ := in.(flow.MustSet)
		if held == nil {
			held = flow.MustSet{}
		}
		for _, n := range b.Nodes {
			held = c.node(info, held, n, fname)
		}
	}
	for _, t := range cfg.Terminators() {
		out, ok := res.Out[t]
		if !ok {
			continue
		}
		held, _ := out.(flow.MustSet)
		pos := cfg.End
		for i := len(t.Nodes) - 1; i >= 0; i-- {
			if r, ok := t.Nodes[i].(*ast.ReturnStmt); ok {
				pos = r.Pos()
				break
			}
		}
		for _, enc := range held.Sorted() {
			if deferUnlocked[enc] {
				continue
			}
			k := decodeKey(enc)
			c.pass.Reportf(pos, "lock %s is still held on this return path: missing Unlock (or defer it at the acquire)", k.instance)
		}
	}
	return info
}

// node interprets one CFG node over the must-held set. info is nil
// during the fixpoint; when non-nil (reporting pass) diagnostics are
// emitted and the summary is populated.
func (c *checker) node(info *fnInfo, held flow.MustSet, n ast.Node, fname string) flow.MustSet {
	ast.Inspect(n, func(sub ast.Node) bool {
		if _, ok := sub.(*ast.FuncLit); ok {
			return false // analyzed separately with a fresh held-set
		}
		call, ok := sub.(*ast.CallExpr)
		if !ok {
			return true
		}
		kind, recv := syncLockKind(c.pass.TypesInfo, call)
		switch kind {
		case "Lock", "RLock":
			k := c.key(fname, recv)
			enc := k.encode()
			if held[enc] && info != nil {
				c.pass.Reportf(call.Pos(), "%s of %s while it is already held: guaranteed self-deadlock", kind, k.instance)
			}
			if info != nil {
				info.acquires[k.class] = true
				for _, henc := range held.Sorted() {
					h := decodeKey(henc)
					if h.class != k.class {
						c.edges = append(c.edges, edge{from: h.class, to: k.class, pos: call.Pos()})
					}
				}
			}
			held = held.With(enc)
		case "Unlock", "RUnlock":
			held = held.Without(c.key(fname, recv).encode())
		default:
			if info != nil && len(held) > 0 {
				if fn := calleeFunc(c.pass.TypesInfo, call); fn != nil && fn.Pkg() == c.pass.Pkg {
					var hs []lockKey
					for _, henc := range held.Sorted() {
						hs = append(hs, decodeKey(henc))
					}
					info.calls = append(info.calls, callSite{callee: fn, held: hs, pos: call.Pos()})
				}
			}
		}
		return true
	})
	return held
}

// key derives the lock identity from the receiver expression of a
// Lock/Unlock call: (owner type, field) for field mutexes, package
// name for package-level mutexes, function-scoped for locals.
func (c *checker) key(fname string, recv ast.Expr) lockKey {
	recv = ast.Unparen(recv)
	instance := types.ExprString(recv)
	switch x := recv.(type) {
	case *ast.Ident:
		obj := c.pass.TypesInfo.Uses[x]
		if obj != nil && obj.Parent() == c.pass.Pkg.Scope() {
			return lockKey{class: c.pass.Pkg.Name() + "." + obj.Name(), instance: instance}
		}
		return lockKey{class: fname + "." + x.Name, instance: instance}
	case *ast.SelectorExpr:
		if tv, ok := c.pass.TypesInfo.Types[x.X]; ok && tv.Type != nil {
			t := tv.Type
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok {
				return lockKey{class: c.pass.Pkg.Name() + "." + n.Obj().Name() + "." + x.Sel.Name, instance: instance}
			}
		}
	}
	return lockKey{class: c.pass.Pkg.Name() + "." + instance, instance: instance}
}

// interprocedural folds callee acquire summaries into caller-side
// ordering edges: holding A across a call that (transitively) acquires
// B is the same hazard as holding A while locking B inline.
func (c *checker) interprocedural() {
	trans := map[*types.Func]map[string]bool{}
	for fn, info := range c.fns {
		t := map[string]bool{}
		for cl := range info.acquires {
			t[cl] = true
		}
		trans[fn] = t
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range c.order {
			info := c.fns[fn]
			for _, cs := range info.calls {
				callee, ok := trans[cs.callee]
				if !ok {
					continue
				}
				for cl := range callee {
					if !trans[fn][cl] {
						trans[fn][cl] = true
						changed = true
					}
				}
			}
		}
	}
	for _, fn := range c.order {
		for _, cs := range c.fns[fn].calls {
			callee, ok := trans[cs.callee]
			if !ok {
				continue
			}
			var acquired []string
			for cl := range callee {
				acquired = append(acquired, cl)
			}
			sort.Strings(acquired)
			for _, h := range cs.held {
				for _, cl := range acquired {
					if cl != h.class {
						c.edges = append(c.edges, edge{from: h.class, to: cl, pos: cs.pos, viaCall: cs.callee.Name()})
					}
				}
			}
		}
	}
}

// reportCycles finds every acquisition edge that participates in a
// cycle of the class-level graph and reports it (deduplicated, in
// position order).
func (c *checker) reportCycles() {
	adj := map[string]map[string]bool{}
	for _, e := range c.edges {
		if adj[e.from] == nil {
			adj[e.from] = map[string]bool{}
		}
		adj[e.from][e.to] = true
	}
	reaches := func(from, to string) bool {
		seen := map[string]bool{from: true}
		stack := []string{from}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for m := range adj[n] {
				if m == to {
					return true
				}
				if !seen[m] {
					seen[m] = true
					stack = append(stack, m)
				}
			}
		}
		return false
	}
	sort.Slice(c.edges, func(i, j int) bool { return c.edges[i].pos < c.edges[j].pos })
	seen := map[string]bool{}
	for _, e := range c.edges {
		id := e.from + "->" + e.to
		if seen[id] || !reaches(e.to, e.from) {
			continue
		}
		seen[id] = true
		via := ""
		if e.viaCall != "" {
			via = " (through call to " + e.viaCall + ")"
		}
		c.pass.Reportf(e.pos, "lock order cycle: %s acquired while %s is held%s, but the reverse order also exists — potential deadlock", e.to, e.from, via)
	}
}

// calleeFunc resolves the statically-called function, if any.
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

// syncLockKind classifies a call as one of the four sync.Mutex /
// sync.RWMutex lock operations and returns the receiver expression.
func syncLockKind(info *types.Info, call *ast.CallExpr) (string, ast.Expr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", nil
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", nil
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return "", nil
	}
	if name := n.Obj().Name(); name != "Mutex" && name != "RWMutex" {
		return "", nil
	}
	return fn.Name(), sel.X
}
