package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"speedlight/internal/lint/flow"
)

// poolown proves the linear-ownership discipline of pooled
// values (DESIGN.md §9) path-sensitively at compile time.
//
// PR 5 replaced GC-managed packet and event lifetimes with explicit
// free lists: packet.Pool.Get / Network.NewPacket hand out a value the
// caller *owns*, and every owned value must reach exactly one terminal
// on every control-flow path — a Put back to its pool, a blessed
// handoff that transfers ownership (the sim Send/Schedule family,
// emunet injection, a //speedlight:pool-transfer callee), or an escape
// into longer-lived storage (returned, stored in a field/slice/map,
// captured by a closure, sent on a channel). The runtime enforces this
// with generation checks and "use after free" panics; poolown enforces
// it on the CFG before the code ever runs.
//
// On top of the internal/lint/flow engine it runs a forward may
// analysis whose lattice tracks each pooled local through
// {Owned, Released, Consumed, Escaped} and reports:
//
//   - use-after-Put: any read of a value that was Put on some path to
//     the use — the compile-time twin of the pool's generation panic;
//   - double-Put: a Put reached while a previous Put may already have
//     run;
//   - leak: a return path on which the value is still Owned (no Put,
//     handoff, or escape) — the early-return leaks PR 5's audit hunted
//     by hand;
//   - discarded origin: calling Get for its side effect only.
//
// Ownership transfer across function boundaries is declared, not
// guessed: a same-package callee that takes over an argument marks the
// parameter with
//
//	//speedlight:pool-transfer <param> [<param>...]
//
// which both consumes the argument at every call site and makes the
// parameter Owned-at-entry inside the callee, so the obligation is
// checked on both sides of the call. The SPSC ring handoff (sim.evRing,
// PR 10) uses the variant
//
//	//speedlight:pool-transfer-cell <param> [<param>...]
//
// for try-style cell pushes: call sites consume exactly like
// pool-transfer (the push is the sanctioned cross-shard crossing), but
// the callee body is exempt from Owned-at-entry — a failed tryPush
// returns ownership to the caller, a protocol the path-insensitive
// lattice cannot express, so the cell write itself is trusted and the
// caller's retry/stash loop carries the checked obligation. Deliberate
// violations (the pool's own panic tests) opt out per function with
// //speedlight:pool-unchecked.
//
// Known approximations, all conservative for real findings: aliasing a
// tracked value (p := pkt) stops tracking both; a deferred Put
// discharges the leak obligation but is not checked against a second
// explicit Put; panic-terminated paths owe nothing.
var poolown = &analyzer{name: "poolown", run: func(p *pass) {
	c := &poolChecker{pass: p, transfer: map[*types.Func][]int{}}
	// Pass 1: collect //speedlight:pool-transfer (and the ring-cell
	// variant) signatures so call sites anywhere in the package consume
	// the right argument slots.
	p.eachFunc(func(fd *ast.FuncDecl) {
		args, ok := flow.Directive(fd.Doc, "pool-transfer")
		if !ok {
			args, ok = flow.Directive(fd.Doc, "pool-transfer-cell")
		}
		if fn, _ := p.info.Defs[fd.Name].(*types.Func); ok && fn != nil {
			c.transfer[fn] = transferIndexes(fn, strings.Fields(args))
		}
	})
	// Pass 2: analyze every function body (and every function literal
	// as its own context; captured pooled values are treated as escaped
	// at the capture site).
	p.eachFunc(func(fd *ast.FuncDecl) {
		if _, unchecked := flow.Directive(fd.Doc, "pool-unchecked"); unchecked {
			return
		}
		var owned []types.Object
		if args, ok := flow.Directive(fd.Doc, "pool-transfer"); ok {
			owned = paramObjects(p, fd, strings.Fields(args))
		}
		c.analyze(fd.Body, owned)
		for _, lit := range funcLits(fd.Body) {
			c.analyze(lit.Body, nil)
		}
	})
}}

// Abstract states (a may-bitset: a value can be Owned on one inbound
// path and Released on another).
const (
	stOwned flow.Abs = 1 << iota
	stReleased
	stConsumed
	stEscaped
)

// blessedConsumers lists cross-package calls that take ownership of any
// pooled argument, keyed by package scope then function/method name.
// These are the sanctioned handoff points of DESIGN.md §9: the sim
// scheduling family owns events/payloads it enqueues, and emunet
// injection owns the injected packet.
var blessedConsumers = map[string]map[string]bool{
	"sim": {
		"Send": true, "SendAt": true, "SendCall": true,
		"Schedule": true, "After": true, "AfterCall": true,
	},
	"emunet": {"InjectFrom": true, "InjectFromHost": true},
}

// transferIndexes maps the directive's parameter names to their
// positions in the signature.
func transferIndexes(fn *types.Func, names []string) []int {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	var idx []int
	for i := 0; i < sig.Params().Len(); i++ {
		for _, name := range names {
			if sig.Params().At(i).Name() == name {
				idx = append(idx, i)
			}
		}
	}
	return idx
}

// paramObjects resolves the directive's parameter names to their
// types.Objects so the callee body starts with them Owned.
func paramObjects(p *pass, fd *ast.FuncDecl, names []string) []types.Object {
	var out []types.Object
	for _, field := range fd.Type.Params.List {
		for _, id := range field.Names {
			for _, name := range names {
				if id.Name == name {
					if obj := p.info.Defs[id]; obj != nil {
						out = append(out, obj)
					}
				}
			}
		}
	}
	return out
}

type poolChecker struct {
	*pass
	transfer map[*types.Func][]int // pool-transfer param positions
}

// fnAnalysis is the per-function state of one dataflow run.
type fnAnalysis struct {
	c        *poolChecker
	deferPut map[types.Object]bool
}

func (c *poolChecker) analyze(body *ast.BlockStmt, ownedParams []types.Object) {
	fa := &fnAnalysis{c: c, deferPut: map[types.Object]bool{}}
	cfg := flow.Build(body)
	// Deferred Puts discharge the leak obligation at every exit.
	for _, d := range cfg.Defers {
		if isRelease(calleeFunc(c.info, d.Call)) && len(d.Call.Args) == 1 {
			if obj := identObj(c.pass, d.Call.Args[0]); obj != nil {
				fa.deferPut[obj] = true
			}
		}
	}
	var entry flow.Env
	for _, obj := range ownedParams {
		entry = entry.Set(obj, stOwned)
	}
	cfg.Solve(flow.EnvLattice, entry, func(f flow.Fact, n ast.Node, report bool) flow.Fact {
		c.muted = !report
		return fa.node(f.(flow.Env), n)
	}, fa.leakCheck)
}

// leakCheck reports every value still (possibly) Owned at a return.
func (fa *fnAnalysis) leakCheck(f flow.Fact, pos token.Pos) {
	for obj, st := range f.(flow.Env) {
		if st&stOwned != 0 && !fa.deferPut[obj] {
			fa.c.reportf(pos, "pooled value %s may leak on this return path: no Put, blessed handoff, or escape", obj.Name())
		}
	}
}

// ---- transfer function ----

// node interprets one CFG node over the environment.
func (fa *fnAnalysis) node(env flow.Env, n ast.Node) flow.Env {
	switch n := n.(type) {
	case *ast.AssignStmt:
		return fa.assign(env, n)
	case *ast.DeclStmt:
		return fa.declStmt(env, n)
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			env = fa.escapeOrWalk(env, r)
		}
		return env
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
			if fn := calleeFunc(fa.c.info, call); isOrigin(fn) {
				fa.c.reportf(call.Pos(), "result of pooled %s discarded: the value leaks immediately", fn.Name())
			}
		}
		return fa.expr(env, n.X)
	case *ast.DeferStmt:
		// Arguments are evaluated here; the (pre-collected) release
		// effect applies at exits, so no state change now.
		env = fa.expr(env, n.Call.Fun)
		for _, a := range n.Call.Args {
			if obj, id := trackedIn(fa.c.pass, env, a); obj != nil {
				fa.useCheck(env, id)
				continue
			}
			env = fa.expr(env, a)
		}
		return env
	case *ast.SendStmt:
		env = fa.expr(env, n.Chan)
		return fa.escapeOrWalk(env, n.Value)
	case *ast.GoStmt:
		env = fa.expr(env, n.Call.Fun)
		for _, a := range n.Call.Args {
			env = fa.escapeOrWalk(env, a)
		}
		return env
	case *ast.IncDecStmt:
		return fa.expr(env, n.X)
	case *ast.BranchStmt:
		return env
	case ast.Expr:
		return fa.expr(env, n)
	case ast.Stmt:
		// Conservative fallback for statement forms with no explicit
		// ownership semantics: check uses only.
		ast.Inspect(n, func(sub ast.Node) bool {
			if _, ok := sub.(*ast.FuncLit); ok {
				return false
			}
			if id, ok := sub.(*ast.Ident); ok {
				fa.useCheck(env, id)
			}
			return true
		})
		return env
	}
	return env
}

// assign interprets assignment forms: origin tracking, aliasing,
// type-assert ownership transfer, and stores (escapes).
func (fa *fnAnalysis) assign(env flow.Env, a *ast.AssignStmt) flow.Env {
	if len(a.Lhs) == 1 && len(a.Rhs) == 1 {
		return fa.assignOne(env, a.Lhs[0], a.Rhs[0])
	}
	if len(a.Lhs) == len(a.Rhs) {
		for i := range a.Rhs {
			env = fa.assignOne(env, a.Lhs[i], a.Rhs[i])
		}
		return env
	}
	// Multi-value call/comma-ok: walk the sources, untrack the targets.
	for _, r := range a.Rhs {
		env = fa.expr(env, r)
	}
	for _, l := range a.Lhs {
		if lid, ok := l.(*ast.Ident); ok {
			if obj := defOrUse(fa.c.pass, lid); obj != nil {
				env = env.Set(obj, 0)
			}
		} else {
			env = fa.expr(env, l)
		}
	}
	return env
}

func (fa *fnAnalysis) assignOne(env flow.Env, lhs, rhs ast.Expr) flow.Env {
	lid, lhsIsIdent := lhs.(*ast.Ident)
	if !lhsIsIdent {
		// Store into a field/slot: the stored value escapes.
		env = fa.expr(env, lhs)
		return fa.escapeOrWalk(env, rhs)
	}
	// pkt := pool.Get(...)
	if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
		if fn := calleeFunc(fa.c.info, call); isOrigin(fn) {
			env = fa.call(env, call)
			if obj := defOrUse(fa.c.pass, lid); isLocalVar(fa.c.pass, obj) {
				// A := in a loop body rebinds a fresh variable each
				// iteration (the back edge carries the old state);
				// only a plain = assignment can overwrite a live one.
				if _, isDef := fa.c.info.Defs[lid]; !isDef && env.Get(obj)&stOwned != 0 {
					fa.c.reportf(lhs.Pos(), "pooled value %s overwritten while still owned: the previous value leaks", lid.Name)
				}
				return env.Set(obj, stOwned)
			}
			return env
		}
	}
	// p := pkt — aliasing defeats linear tracking; drop both.
	if rid, ok := ast.Unparen(rhs).(*ast.Ident); ok {
		if robj := lookupTracked(fa.c.pass, env, rid); robj != nil {
			fa.useCheck(env, rid)
			env = env.Set(robj, stEscaped)
			if obj := defOrUse(fa.c.pass, lid); obj != nil {
				env = env.Set(obj, stEscaped)
			}
			return env
		}
	}
	// pkt := b.(*packet.Packet) — ownership follows the assertion
	// (the deliverGlobalCall trampoline pattern).
	if ta, ok := ast.Unparen(rhs).(*ast.TypeAssertExpr); ok && ta.Type != nil {
		if rid, ok := ast.Unparen(ta.X).(*ast.Ident); ok {
			if robj := lookupTracked(fa.c.pass, env, rid); robj != nil {
				fa.useCheck(env, rid)
				st := env.Get(robj)
				env = env.Set(robj, 0)
				if obj := defOrUse(fa.c.pass, lid); obj != nil {
					return env.Set(obj, st)
				}
				return env
			}
		}
	}
	env = fa.expr(env, rhs)
	if obj := defOrUse(fa.c.pass, lid); obj != nil && env.Get(obj) != 0 {
		env = env.Set(obj, 0) // overwritten by an untracked value
	}
	return env
}

// declStmt handles `var pkt = pool.Get()` like the := form.
func (fa *fnAnalysis) declStmt(env flow.Env, d *ast.DeclStmt) flow.Env {
	gd, ok := d.Decl.(*ast.GenDecl)
	if !ok {
		return env
	}
	for _, spec := range gd.Specs {
		vs, ok := spec.(*ast.ValueSpec)
		if !ok {
			continue
		}
		if len(vs.Names) == len(vs.Values) {
			for i := range vs.Names {
				env = fa.assignOne(env, vs.Names[i], vs.Values[i])
			}
			continue
		}
		for _, v := range vs.Values {
			env = fa.expr(env, v)
		}
	}
	return env
}

// escapeOrWalk marks a directly-named tracked value as Escaped (it
// moved into storage the analysis cannot see: a return value, channel,
// goroutine, composite literal, field) after checking the use is live;
// any other expression is walked normally.
func (fa *fnAnalysis) escapeOrWalk(env flow.Env, e ast.Expr) flow.Env {
	if obj, id := trackedIn(fa.c.pass, env, e); obj != nil {
		fa.useCheck(env, id)
		return env.Set(obj, stEscaped)
	}
	return fa.expr(env, e)
}

// expr walks an expression, checking uses and applying call effects.
func (fa *fnAnalysis) expr(env flow.Env, e ast.Expr) flow.Env {
	switch e := e.(type) {
	case nil:
		return env
	case *ast.Ident:
		fa.useCheck(env, e)
		return env
	case *ast.CallExpr:
		return fa.call(env, e)
	case *ast.ParenExpr:
		return fa.expr(env, e.X)
	case *ast.SelectorExpr:
		return fa.expr(env, e.X)
	case *ast.StarExpr:
		return fa.expr(env, e.X)
	case *ast.UnaryExpr:
		return fa.expr(env, e.X)
	case *ast.BinaryExpr:
		env = fa.expr(env, e.X)
		return fa.expr(env, e.Y)
	case *ast.IndexExpr:
		env = fa.expr(env, e.X)
		return fa.expr(env, e.Index)
	case *ast.IndexListExpr:
		env = fa.expr(env, e.X)
		for _, i := range e.Indices {
			env = fa.expr(env, i)
		}
		return env
	case *ast.SliceExpr:
		env = fa.expr(env, e.X)
		env = fa.expr(env, e.Low)
		env = fa.expr(env, e.High)
		return fa.expr(env, e.Max)
	case *ast.TypeAssertExpr:
		return fa.expr(env, e.X)
	case *ast.KeyValueExpr:
		return fa.expr(env, e.Value)
	case *ast.CompositeLit:
		// Embedding a pooled value in a literal hands it to whatever
		// owns the literal (Handle{ev: ev}).
		for _, el := range e.Elts {
			v := el
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				v = kv.Value
			}
			env = fa.escapeOrWalk(env, v)
		}
		return env
	case *ast.FuncLit:
		// Captured pooled values escape into the closure; the literal
		// body is analyzed as its own function.
		var captured []types.Object
		ast.Inspect(e.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := lookupTracked(fa.c.pass, env, id); obj != nil {
					captured = append(captured, obj)
				}
			}
			return true
		})
		for _, obj := range captured {
			env = env.Set(obj, stEscaped)
		}
		return env
	default:
		return env
	}
}

// call applies one call's ownership effects: Put releases, blessed or
// pool-transfer callees consume, everything else borrows.
func (fa *fnAnalysis) call(env flow.Env, call *ast.CallExpr) flow.Env {
	env = fa.expr(env, call.Fun)

	// append(dst, pkt) moves the value into the destination slice —
	// the evq/mailbox push pattern; other builtins only borrow.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := fa.c.info.Uses[id].(*types.Builtin); ok {
			for i, arg := range call.Args {
				if b.Name() == "append" && i > 0 {
					env = fa.escapeOrWalk(env, arg)
				} else {
					env = fa.expr(env, arg)
				}
			}
			return env
		}
	}

	fn := calleeFunc(fa.c.info, call)

	if isRelease(fn) && len(call.Args) == 1 {
		if obj, id := trackedIn(fa.c.pass, env, call.Args[0]); obj != nil {
			if env.Get(obj)&stReleased != 0 {
				fa.c.reportf(call.Pos(), "double Put of pooled value %s: already returned to the pool on a path reaching here", id.Name)
			}
			return env.Set(obj, stReleased)
		}
		return fa.expr(env, call.Args[0])
	}

	consume := fa.c.consumedArgs(fn, len(call.Args))
	for i, arg := range call.Args {
		if obj, id := trackedIn(fa.c.pass, env, arg); obj != nil {
			fa.useCheck(env, id)
			if consume[i] {
				env = env.Set(obj, stConsumed)
			}
			continue
		}
		env = fa.expr(env, arg)
	}
	return env
}

// useCheck flags a read of a value that may already be back in the
// pool — the compile-time form of the generation-check panic.
func (fa *fnAnalysis) useCheck(env flow.Env, id *ast.Ident) {
	obj := fa.c.info.Uses[id]
	if obj == nil {
		return
	}
	if env.Get(obj)&stReleased != 0 {
		fa.c.reportf(id.Pos(), "use of pooled value %s after Put: the pool may have recycled it (use after free)", id.Name)
	}
}

// ---- callee classification ----

// isOrigin reports whether fn mints a pooled value the caller owns.
func isOrigin(fn *types.Func) bool {
	if fn == nil {
		return false
	}
	switch fn.Name() {
	case "Get":
		return recvIs(fn, "packet", "Pool")
	case "get":
		return recvIs(fn, "sim", "eventPool")
	case "NewPacket", "NewPacketFor":
		return recvIs(fn, "emunet", "Network")
	}
	return false
}

// isRelease reports whether fn returns its argument to a pool.
func isRelease(fn *types.Func) bool {
	if fn == nil {
		return false
	}
	switch fn.Name() {
	case "Put":
		return recvIs(fn, "packet", "Pool")
	case "put":
		return recvIs(fn, "sim", "eventPool")
	}
	return false
}

// consumedArgs returns which argument positions fn takes ownership of:
// every position for a blessed cross-package consumer, the directive's
// named positions for a //speedlight:pool-transfer callee.
func (c *poolChecker) consumedArgs(fn *types.Func, nargs int) map[int]bool {
	if fn == nil {
		return nil
	}
	out := map[int]bool{}
	if idx, ok := c.transfer[fn]; ok {
		for _, i := range idx {
			out[i] = true
			// A variadic or trailing transfer param consumes the rest.
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Variadic() && i == sig.Params().Len()-1 {
				for j := i; j < nargs; j++ {
					out[j] = true
				}
			}
		}
		return out
	}
	if fn.Pkg() != nil {
		scope := pkgScope(fn.Pkg().Path())
		if blessedConsumers[scope][fn.Name()] {
			for i := 0; i < nargs; i++ {
				out[i] = true
			}
			return out
		}
	}
	return nil
}

// ---- environment lookups ----

// identObj resolves an argument expression (through parens and type
// assertions) to the object of a plain identifier, if it is one.
func identObj(p *pass, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		case *ast.Ident:
			return p.info.Uses[x]
		default:
			return nil
		}
	}
}

// trackedIn resolves e to a tracked identifier, unwrapping parens and
// type assertions (pool.Put(b.(*packet.Packet)) releases b).
func trackedIn(p *pass, env flow.Env, e ast.Expr) (types.Object, *ast.Ident) {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.TypeAssertExpr:
			e = x.X
		case *ast.Ident:
			if obj := p.info.Uses[x]; obj != nil && env.Get(obj) != 0 {
				return obj, x
			}
			return nil, nil
		default:
			return nil, nil
		}
	}
}

// lookupTracked returns the tracked object a use-identifier refers to.
func lookupTracked(p *pass, env flow.Env, id *ast.Ident) types.Object {
	obj := p.info.Uses[id]
	if obj != nil && env.Get(obj) != 0 {
		return obj
	}
	return nil
}

// defOrUse resolves an identifier in either defining (:=) or assigning
// (=) position.
func defOrUse(p *pass, id *ast.Ident) types.Object {
	if obj := p.info.Defs[id]; obj != nil {
		return obj
	}
	return p.info.Uses[id]
}

// isLocalVar reports whether obj is a function-local variable — the
// only kind poolown tracks (package-level pooled state is owned by a
// subsystem, not a path).
func isLocalVar(p *pass, obj types.Object) bool {
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return false
	}
	return obj.Parent() != p.pkg.Scope()
}
