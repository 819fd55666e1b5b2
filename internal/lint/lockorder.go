package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"speedlight/internal/lint/flow"
)

// lockorder is the one held-lock analysis of the packages the protocol
// table marks locks. It computes, on the CFG, the set of sync
// mutexes that are held on *every* path to a point (a must analysis,
// intersection join: nothing fires on one branch of a conditional
// lock), keyed by the receiver expression of the Lock call ("c.mu"),
// and proves three things with it:
//
//  1. Unlock-on-every-path: a mutex acquired in a function is released
//     (explicitly or by defer) on every return path — the
//     Lock; if err { return } early-exit bug class.
//
//  2. No self-deadlock: re-acquiring a mutex that is must-held.
//
//  3. Never block while holding a lock. The paper's feasibility
//     argument (§5) is that per-packet snapshot work fits a switch
//     pipeline: bounded, non-blocking steps. A channel send, a select
//     without default, a net read/write or a time.Sleep under a mutex
//     can stall every packet behind it and, in live mode, deadlock
//     against the reader goroutine.
//
// A deferred unlock holds its lock to function end (so 2 and 3 still
// apply below it) and discharges obligation 1; a defer registered
// conditionally still discharges it. Function literals run on their
// own schedule with nothing held. There is no acquisition-order rule:
// each scoped package declares at most one mutex (node.Fabric.mu,
// packet.Central.mu, emunet.Network.syncMu, live.mailbox.mu,
// wire.hostTx.mu), so the tree has no order to get wrong
// (TestProtocolTable fails when one gains a second).
var lockorder = &analyzer{name: "lockorder", run: func(p *pass) {
	if !protocol[p.scope()].locks {
		return
	}
	p.eachFunc(func(fd *ast.FuncDecl) {
		h := &heldLocks{pass: p, comm: map[ast.Stmt]*ast.SelectStmt{}}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectStmt); ok {
				for _, clause := range sel.Body.List {
					if comm := clause.(*ast.CommClause).Comm; comm != nil {
						h.comm[comm] = sel
					}
				}
			}
			return true
		})
		h.analyze(fd.Body)
		for _, lit := range funcLits(fd.Body) {
			h.analyze(lit.Body)
		}
	})
}}

// heldLocks is the analysis state of one function declaration.
type heldLocks struct {
	*pass
	// comm maps each communication of a select to it: a select blocks
	// at its head unless it has a default, and its sends are governed
	// by it rather than being bare sends.
	comm     map[ast.Stmt]*ast.SelectStmt
	deferred map[string]bool // unlocked by a defer
}

func (h *heldLocks) analyze(body *ast.BlockStmt) {
	cfg := flow.Build(body)
	h.deferred = map[string]bool{}
	for _, d := range cfg.Defers {
		if op, mu := syncLockOp(h.info, d.Call); strings.HasSuffix(op, "Unlock") {
			h.deferred[mu] = true
		}
	}
	cfg.Solve(flow.MustLattice, flow.MustSet{}, h.step, func(f flow.Fact, pos token.Pos) {
		for _, mu := range f.(flow.MustSet).Sorted() {
			if !h.deferred[mu] {
				h.reportf(pos, "lock %s is still held on this return path: missing Unlock (or defer it at the acquire)", mu)
			}
		}
	})
}

// step interprets one CFG node over the must-held set.
func (h *heldLocks) step(f flow.Fact, n ast.Node, report bool) flow.Fact {
	held := f.(flow.MustSet)
	h.muted = !report
	if d, ok := n.(*ast.DeferStmt); ok {
		if op, _ := syncLockOp(h.info, d.Call); strings.HasSuffix(op, "Unlock") {
			return held // runs at exit: held until then
		}
	}
	if stmt, ok := n.(ast.Stmt); ok && len(held) > 0 {
		sel := h.comm[stmt]
		if send, ok := n.(*ast.SendStmt); ok && sel == nil {
			h.reportf(send.Arrow,
				"channel send while holding a sync lock: sends can block indefinitely; buffer outside the critical section")
		}
		// The first communication's block enters with the fact at the
		// select's head.
		if sel != nil && !hasDefault(sel) && sel.Body.List[0].(*ast.CommClause).Comm == stmt {
			h.reportf(sel.Select,
				"select without default while holding a sync lock: this blocks the critical section")
		}
	}
	ast.Inspect(n, func(sub ast.Node) bool {
		if _, ok := sub.(*ast.FuncLit); ok {
			return false
		}
		call, ok := sub.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch op, mu := syncLockOp(h.info, call); op {
		case "Lock", "RLock":
			if held[mu] {
				h.reportf(call.Pos(), "%s of %s while it is already held: guaranteed self-deadlock", op, mu)
			}
			held = held.With(mu)
		case "Unlock", "RUnlock":
			held = held.Without(mu)
		default:
			if len(held) > 0 {
				h.checkBlockingCall(call)
			}
		}
		return true
	})
	return held
}

// syncLockOp classifies a call as one of the four sync.Mutex /
// sync.RWMutex lock operations and names the mutex by its receiver
// expression; op is "" for any other call.
func syncLockOp(info *types.Info, call *ast.CallExpr) (op, mu string) {
	fn := calleeFunc(info, call)
	if !recvIs(fn, "sync", "Mutex") && !recvIs(fn, "sync", "RWMutex") {
		return "", ""
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return "", ""
		}
		return fn.Name(), types.ExprString(ast.Unparen(sel.X))
	}
	return "", ""
}

// checkBlockingCall flags calls that can block: net connection
// reads/writes and time.Sleep.
func (h *heldLocks) checkBlockingCall(call *ast.CallExpr) {
	fn := calleeFunc(h.info, call)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	switch fn.Pkg().Path() {
	case "net":
		if strings.HasPrefix(fn.Name(), "Write") || strings.HasPrefix(fn.Name(), "Read") {
			h.reportf(call.Pos(),
				"net %s while holding a sync lock: network I/O can stall the critical section",
				fn.Name())
		}
	case "time":
		if fn.Name() == "Sleep" {
			h.reportf(call.Pos(),
				"time.Sleep while holding a sync lock: sleeping in a critical section stalls the data plane")
		}
	}
}

func hasDefault(sel *ast.SelectStmt) bool {
	for _, clause := range sel.Body.List {
		if c, ok := clause.(*ast.CommClause); ok && c.Comm == nil {
			return true
		}
	}
	return false
}
