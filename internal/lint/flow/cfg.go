// Package flow is a stdlib-only intraprocedural control-flow and
// dataflow engine for the speedlightvet analyzers. It builds a
// basic-block CFG from a function body (go/ast only, no SSA) and runs
// forward fixpoint dataflow over it with pluggable lattices.
//
// The engine is deliberately small: it models exactly the control
// constructs the ownership/locking analyzers need (branches, loops,
// switch/select, labeled break/continue, goto, defer, panic/return
// termination) and approximates everything else conservatively. It is
// not a general-purpose optimizer substrate; it is the minimum machine
// needed to prove DESIGN.md §9's linear-ownership and lock-pairing
// contracts path-sensitively.
package flow

import (
	"fmt"
	"go/ast"
	"go/token"
)

// Block is a maximal straight-line run of statements. Nodes holds the
// statements and branch-condition expressions in execution order; for
// composite statements only the parts evaluated *in this block* appear
// (an if's condition, a switch's tag), never the nested bodies, so a
// transfer function can ast.Inspect each node without double-visiting.
type Block struct {
	Index int
	// Kind labels why the block exists: "entry", "exit", "body",
	// "if.then", "if.else", "for.head", "for.body", "for.post",
	// "range.head", "range.body", "switch.case", "select.comm",
	// "join", "return", "panic", "implicit.return", "unreachable".
	Kind  string
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block
}

func (b *Block) String() string { return fmt.Sprintf("b%d(%s)", b.Index, b.Kind) }

// CFG is the control-flow graph of one function body. Exit is a
// synthetic empty block; every return, panic and fall-off-the-end path
// has an edge to it. Defers collects defer statements in source order
// (their calls run at every exit; dataflow clients apply them when
// interpreting facts at Exit-predecessor blocks).
type CFG struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block
	Defers []*ast.DeferStmt
	// End is the closing brace of the body, used as the report
	// position for facts that hold at an implicit return.
	End token.Pos
}

// builder carries the loop/label context while walking statements.
// cur == nil means the walker is in dead code (after return/branch);
// statements there still get blocks so positions stay reportable, but
// with no predecessors they stay at ⊥ during dataflow.
type builder struct {
	cfg    *CFG
	cur    *Block
	brk    []*target // innermost-last break targets
	cont   []*target // innermost-last continue targets
	labels map[string]*labelInfo
	gotos  []pendingGoto
}

type target struct {
	label string
	block *Block
}

type labelInfo struct {
	block *Block // first block of the labeled statement (goto target)
}

type pendingGoto struct {
	from  *Block
	label string
}

// Build constructs the CFG for a function body. It never fails: any
// construct it does not model precisely is appended to the current
// block and treated as straight-line code.
func Build(body *ast.BlockStmt) *CFG {
	c := &CFG{End: body.Rbrace}
	b := &builder{cfg: c, labels: map[string]*labelInfo{}}
	c.Entry = b.newBlock("entry")
	c.Exit = &Block{Kind: "exit"}
	b.cur = c.Entry
	b.stmtList(body.List)
	if b.cur != nil {
		// Fall off the end of the body: an implicit return.
		b.cur.Kind = retKind(b.cur.Kind, "implicit.return")
		b.edge(b.cur, c.Exit)
	}
	// Resolve forward gotos now that all labels are known.
	for _, g := range b.gotos {
		if li, ok := b.labels[g.label]; ok && li.block != nil {
			b.edge(g.from, li.block)
		} else {
			// Unresolvable (malformed source): treat as exit.
			b.edge(g.from, c.Exit)
		}
	}
	c.Exit.Index = len(c.Blocks)
	c.Blocks = append(c.Blocks, c.Exit)
	return c
}

// retKind upgrades a block's kind to a terminating kind without
// clobbering a more specific one already set.
func retKind(cur, k string) string {
	if cur == "return" || cur == "panic" {
		return cur
	}
	return k
}

func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.cfg.Blocks), Kind: kind}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *builder) edge(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// startBlock makes kind the current block, linking from the previous
// current block if control can fall through into it.
func (b *builder) startBlock(kind string) *Block {
	blk := b.newBlock(kind)
	if b.cur != nil {
		b.edge(b.cur, blk)
	}
	b.cur = blk
	return blk
}

func (b *builder) add(n ast.Node) {
	if b.cur == nil {
		// Dead code after return/branch: give it an unreachable
		// block so every node lives somewhere.
		b.cur = b.newBlock("unreachable")
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s, "")
	}
}

// stmt walks one statement. label is the pending label when the
// statement is the body of an *ast.LabeledStmt.
func (b *builder) stmt(s ast.Stmt, label string) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		// Loop/switch labels are consumed by the inner statement;
		// plain labeled statements become goto targets.
		switch s.Stmt.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			b.stmt(s.Stmt, s.Label.Name)
		default:
			blk := b.startBlock("body")
			b.labels[s.Label.Name] = &labelInfo{block: blk}
			b.stmt(s.Stmt, "")
		}

	case *ast.ReturnStmt:
		b.add(s)
		if b.cur != nil {
			b.cur.Kind = "return"
			b.edge(b.cur, b.cfg.Exit)
			b.cur = nil
		}

	case *ast.BranchStmt:
		b.branch(s)

	case *ast.IfStmt:
		b.ifStmt(s)

	case *ast.ForStmt:
		b.forStmt(s, label)

	case *ast.RangeStmt:
		b.rangeStmt(s, label)

	case *ast.SwitchStmt:
		b.switchStmt(s, label)

	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(s, label)

	case *ast.SelectStmt:
		b.selectStmt(s, label)

	case *ast.DeferStmt:
		// Arguments are evaluated here; the call runs at exits.
		b.cfg.Defers = append(b.cfg.Defers, s)
		b.add(s)

	case *ast.ExprStmt:
		b.add(s)
		if isPanicCall(s.X) {
			if b.cur != nil {
				b.cur.Kind = "panic"
				b.edge(b.cur, b.cfg.Exit)
				b.cur = nil
			}
		}

	case *ast.EmptyStmt:
		// nothing

	default:
		// Assign, IncDec, Send, Go, Decl, ...: straight-line.
		b.add(s)
	}
}

func (b *builder) branch(s *ast.BranchStmt) {
	name := ""
	if s.Label != nil {
		name = s.Label.Name
	}
	switch s.Tok {
	case token.BREAK:
		b.add(s)
		b.jump(b.brk, name)
	case token.CONTINUE:
		b.add(s)
		b.jump(b.cont, name)
	case token.GOTO:
		b.add(s)
		if b.cur != nil {
			if li, ok := b.labels[name]; ok && li.block != nil {
				b.edge(b.cur, li.block)
			} else {
				b.gotos = append(b.gotos, pendingGoto{from: b.cur, label: name})
			}
			b.cur = nil
		}
	case token.FALLTHROUGH:
		// Handled structurally by switchStmt (the clause's last
		// statement); record the node, keep the block open so the
		// caller can wire the edge to the next clause.
		b.add(s)
	}
}

// jump links the current block to the innermost (or labeled) target in
// stack and marks control dead.
func (b *builder) jump(stack []*target, label string) {
	if b.cur == nil {
		return
	}
	for i := len(stack) - 1; i >= 0; i-- {
		if label == "" || stack[i].label == label {
			b.edge(b.cur, stack[i].block)
			b.cur = nil
			return
		}
	}
	// No target (malformed or break out of select-only context we
	// didn't model): exit conservatively.
	b.edge(b.cur, b.cfg.Exit)
	b.cur = nil
}

func (b *builder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.add(s.Init)
	}
	b.add(s.Cond)
	condBlk := b.cur
	if condBlk == nil {
		condBlk = b.startBlock("unreachable")
	}

	thenBlk := b.newBlock("if.then")
	b.edge(condBlk, thenBlk)
	b.cur = thenBlk
	b.stmtList(s.Body.List)
	thenEnd := b.cur

	var elseEnd *Block
	hasElse := s.Else != nil
	if hasElse {
		elseBlk := b.newBlock("if.else")
		b.edge(condBlk, elseBlk)
		b.cur = elseBlk
		b.stmt(s.Else, "")
		elseEnd = b.cur
	}

	if !hasElse {
		// cond-false falls through to the join.
		if thenEnd == nil {
			// then returned/branched: control continues from cond.
			b.cur = condBlk
			b.startBlock("join")
			return
		}
		join := b.newBlock("join")
		b.edge(condBlk, join)
		b.edge(thenEnd, join)
		b.cur = join
		return
	}
	if thenEnd == nil && elseEnd == nil {
		b.cur = nil
		return
	}
	join := b.newBlock("join")
	b.edge(thenEnd, join)
	b.edge(elseEnd, join)
	b.cur = join
}

func (b *builder) forStmt(s *ast.ForStmt, label string) {
	if s.Init != nil {
		b.add(s.Init)
	}
	head := b.startBlock("for.head")
	if s.Cond != nil {
		b.add(s.Cond)
	}

	exit := b.newBlock("join")
	if s.Cond != nil {
		b.edge(head, exit) // condition false
	}

	// continue goes to the post block (or head when absent).
	var post *Block
	contTarget := head
	if s.Post != nil {
		post = b.newBlock("for.post")
		post.Nodes = append(post.Nodes, s.Post)
		b.edge(post, head)
		contTarget = post
	}

	b.brk = append(b.brk, &target{label: label, block: exit})
	b.cont = append(b.cont, &target{label: label, block: contTarget})

	body := b.newBlock("for.body")
	b.edge(head, body)
	b.cur = body
	b.stmtList(s.Body.List)
	if b.cur != nil {
		b.edge(b.cur, contTarget)
	}

	b.brk = b.brk[:len(b.brk)-1]
	b.cont = b.cont[:len(b.cont)-1]
	b.cur = exit
}

func (b *builder) rangeStmt(s *ast.RangeStmt, label string) {
	head := b.startBlock("range.head")
	// The ranged expression (and key/value binding) is evaluated at
	// the head; represent it with the X expression so clients see the
	// use without re-walking the body.
	b.add(s.X)

	exit := b.newBlock("join")
	b.edge(head, exit) // range exhausted

	b.brk = append(b.brk, &target{label: label, block: exit})
	b.cont = append(b.cont, &target{label: label, block: head})

	body := b.newBlock("range.body")
	b.edge(head, body)
	b.cur = body
	b.stmtList(s.Body.List)
	if b.cur != nil {
		b.edge(b.cur, head)
	}

	b.brk = b.brk[:len(b.brk)-1]
	b.cont = b.cont[:len(b.cont)-1]
	b.cur = exit
}

func (b *builder) switchStmt(s *ast.SwitchStmt, label string) {
	if s.Init != nil {
		b.add(s.Init)
	}
	if s.Tag != nil {
		b.add(s.Tag)
	}
	head := b.cur
	if head == nil {
		head = b.startBlock("unreachable")
	}

	exit := b.newBlock("join")
	b.brk = append(b.brk, &target{label: label, block: exit})

	var clauses []*ast.CaseClause
	for _, cs := range s.Body.List {
		if cc, ok := cs.(*ast.CaseClause); ok {
			clauses = append(clauses, cc)
		}
	}
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		blocks[i] = b.newBlock("switch.case")
		b.edge(head, blocks[i])
		if cc.List == nil {
			hasDefault = true
		}
		// Case expressions are evaluated while dispatching.
		for _, e := range cc.List {
			blocks[i].Nodes = append(blocks[i].Nodes, e)
		}
	}
	if !hasDefault {
		b.edge(head, exit)
	}
	for i, cc := range clauses {
		b.cur = blocks[i]
		b.stmtList(cc.Body)
		if b.cur != nil {
			if fallsThrough(cc.Body) && i+1 < len(blocks) {
				b.edge(b.cur, blocks[i+1])
			} else {
				b.edge(b.cur, exit)
			}
			b.cur = nil
		}
	}
	b.brk = b.brk[:len(b.brk)-1]
	b.cur = exit
}

func (b *builder) typeSwitchStmt(s *ast.TypeSwitchStmt, label string) {
	if s.Init != nil {
		b.add(s.Init)
	}
	// Assign is `x := y.(type)` or bare `y.(type)`; it carries the
	// scrutinized expression and no body, so it is safe to append.
	b.add(s.Assign)
	head := b.cur
	if head == nil {
		head = b.startBlock("unreachable")
	}

	exit := b.newBlock("join")
	b.brk = append(b.brk, &target{label: label, block: exit})

	hasDefault := false
	var ends []*Block
	for _, cs := range s.Body.List {
		cc, ok := cs.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		blk := b.newBlock("switch.case")
		b.edge(head, blk)
		b.cur = blk
		b.stmtList(cc.Body)
		if b.cur != nil {
			ends = append(ends, b.cur)
		}
	}
	if !hasDefault {
		b.edge(head, exit)
	}
	for _, e := range ends {
		b.edge(e, exit)
	}
	b.brk = b.brk[:len(b.brk)-1]
	b.cur = exit
}

func (b *builder) selectStmt(s *ast.SelectStmt, label string) {
	head := b.cur
	if head == nil {
		head = b.startBlock("unreachable")
	}
	exit := b.newBlock("join")
	b.brk = append(b.brk, &target{label: label, block: exit})

	any := false
	for _, cs := range s.Body.List {
		cc, ok := cs.(*ast.CommClause)
		if !ok {
			continue
		}
		any = true
		blk := b.newBlock("select.comm")
		b.edge(head, blk)
		b.cur = blk
		if cc.Comm != nil {
			b.add(cc.Comm)
		}
		b.stmtList(cc.Body)
		if b.cur != nil {
			b.edge(b.cur, exit)
		}
	}
	if !any {
		// `select {}` blocks forever.
		b.edge(head, b.cfg.Exit)
	}
	b.brk = b.brk[:len(b.brk)-1]
	b.cur = exit
}

// fallsThrough reports whether a case body ends in a fallthrough
// statement.
func fallsThrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	br, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && br.Tok == token.FALLTHROUGH
}

// isPanicCall reports whether e is a call to the builtin panic. It is
// syntactic (no type info needed at CFG-build time): a bare `panic(...)`
// identifier call. Shadowed local functions named panic are vanishingly
// rare and only make the CFG conservative in the wrong direction for
// dead code, never for reachable paths.
func isPanicCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

// Terminators returns the predecessor blocks of Exit that represent a
// normal return (explicit or implicit), excluding panics — the blocks
// at which leak/held-lock facts must be checked.
func (c *CFG) Terminators() []*Block {
	var out []*Block
	for _, b := range c.Exit.Preds {
		if b.Kind != "panic" {
			out = append(out, b)
		}
	}
	return out
}
