package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"speedlight/internal/lint/flow"
)

// hotalloc flags allocating expressions in functions marked as
// per-packet hot paths.
//
// The paper's data-plane model executes snapshot bookkeeping on every
// packet at line rate; the Go port keeps those paths allocation-free so
// simulated and emulated throughput numbers reflect the algorithm, not
// the garbage collector. A function opts in with a
//
//	//speedlight:hotpath
//
// directive in its doc comment. Inside a marked function hotalloc
// flags fmt formatting calls, non-constant string concatenation,
// map/slice composite literals, make and new builtins, pointer
// composite literals (&T{...}), function literals (closure creation),
// and any use of sync.Pool — pooling on marked paths must go through
// the repo's plain per-context free lists (internal/packet.Pool, the
// sim event pool), whose Get/Put are unsynchronized slice operations
// with explicit ownership, not sync.Pool's escape-prone interface
// boxing. Arguments to panic are exempt: a failing assertion is
// already off the hot path. Cold fallbacks (batch refills, block
// growth) belong in separate unmarked functions.
var hotalloc = &analyzer{name: "hotalloc", run: func(p *pass) {
	p.eachFunc(func(fd *ast.FuncDecl) {
		if _, hot := flow.Directive(fd.Doc, "hotpath"); hot {
			checkHot(p, fd.Body)
		}
	})
}}

// fmtAllocs are the fmt functions that always allocate.
var fmtAllocs = map[string]bool{
	"Sprintf":  true,
	"Sprint":   true,
	"Sprintln": true,
	"Errorf":   true,
	"Fprintf":  true,
}

func checkHot(p *pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			switch builtinName(p.info, n) {
			case "panic":
				return false // assertion failure path is cold
			case "make":
				p.reportf(n.Pos(),
					"make in //speedlight:hotpath function allocates per packet: preallocate or pool the storage")
			case "new":
				p.reportf(n.Pos(),
					"new in //speedlight:hotpath function allocates per packet: preallocate or pool the storage")
			}
			fn := calleeFunc(p.info, n)
			if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && fmtAllocs[fn.Name()] {
				p.reportf(n.Pos(),
					"fmt.%s in //speedlight:hotpath function allocates per packet: format off the hot path",
					fn.Name())
			}
			if recvIs(fn, "sync", "Pool") {
				p.reportf(n.Pos(),
					"sync.Pool %s in //speedlight:hotpath function: use the per-context free lists (interface boxing escapes)",
					fn.Name())
			}
		case *ast.FuncLit:
			p.reportf(n.Pos(),
				"function literal in //speedlight:hotpath function allocates a closure per packet: use a cached CallFn")
			return false // don't double-report the closure's body
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					p.reportf(n.Pos(),
						"pointer composite literal in //speedlight:hotpath function heap-allocates per packet: take cells from a pool")
					return false // the literal itself would be re-flagged below
				}
			}
		case *ast.BinaryExpr:
			if n.Op != token.ADD {
				return true
			}
			tv := p.info.Types[n]
			if tv.Type == nil || tv.Value != nil {
				return true // constant-folded concat costs nothing at run time
			}
			if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
				p.reportf(n.OpPos,
					"string concatenation in //speedlight:hotpath function allocates per packet")
			}
		case *ast.CompositeLit:
			t := p.info.Types[n].Type
			if t == nil {
				return true
			}
			switch t.Underlying().(type) {
			case *types.Map:
				p.reportf(n.Pos(),
					"map literal in //speedlight:hotpath function allocates per packet")
			case *types.Slice:
				p.reportf(n.Pos(),
					"slice literal in //speedlight:hotpath function allocates per packet")
			}
		}
		return true
	})
}
