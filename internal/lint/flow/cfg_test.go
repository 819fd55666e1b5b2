package flow

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// Dump renders the CFG in a compact single-line-per-block format used
// by the shape tests: "b0(entry) -> b1,b2".
func (c *CFG) Dump() string {
	var sb strings.Builder
	for _, b := range c.Blocks {
		fmt.Fprintf(&sb, "b%d(%s)", b.Index, b.Kind)
		if len(b.Succs) > 0 {
			sb.WriteString(" ->")
			for i, s := range b.Succs {
				if i > 0 {
					sb.WriteString(",")
				}
				fmt.Fprintf(&sb, " b%d", s.Index)
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// parseBody parses a function-body snippet into its *ast.BlockStmt.
// Snippets may reference undeclared identifiers; CFG construction is
// purely syntactic, so no type checking is needed.
func parseBody(t *testing.T, body string) *ast.BlockStmt {
	t.Helper()
	src := "package p\n\nfunc f() {\n" + body + "}\n"
	f, err := parser.ParseFile(token.NewFileSet(), "f.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v\nsource:\n%s", err, src)
	}
	return f.Decls[0].(*ast.FuncDecl).Body
}

func blockByKind(t *testing.T, c *CFG, kind string) *Block {
	t.Helper()
	for _, b := range c.Blocks {
		if b.Kind == kind {
			return b
		}
	}
	t.Fatalf("no block of kind %q in:\n%s", kind, c.Dump())
	return nil
}

// TestCFGShapes pins the exact block structure Build produces for each
// control construct the analyzers rely on. The dump format is one line
// per block in creation order (Exit last): "b0(entry) -> b1, b2".
func TestCFGShapes(t *testing.T) {
	tests := []struct {
		name string
		body string
		want string
	}{
		{
			name: "if/else with join",
			body: `
	if c {
		x = 1
	} else {
		x = 2
	}
	x = 3
`,
			want: `b0(entry) -> b1, b2
b1(if.then) -> b3
b2(if.else) -> b3
b3(implicit.return) -> b4
b4(exit)
`,
		},
		{
			name: "if with early return",
			// The then-branch terminates, so control continues from the
			// condition block straight into the join.
			body: `
	if c {
		return
	}
	x = 1
`,
			want: `b0(entry) -> b1, b2
b1(return) -> b3
b2(implicit.return) -> b3
b3(exit)
`,
		},
		{
			name: "for with post, continue, break",
			// continue targets the post block, break targets the loop
			// join; both leave a join block behind for the dead branch.
			body: `
	for i := 0; i < n; i++ {
		if i == 2 {
			continue
		}
		if i == 5 {
			break
		}
		x = i
	}
	x = 9
`,
			want: `b0(entry) -> b1
b1(for.head) -> b2, b4
b2(implicit.return) -> b9
b3(for.post) -> b1
b4(for.body) -> b5, b6
b5(if.then) -> b3
b6(join) -> b7, b8
b7(if.then) -> b2
b8(join) -> b3
b9(exit)
`,
		},
		{
			name: "range loop",
			body: `
	for _, v := range xs {
		use(v)
	}
`,
			want: `b0(entry) -> b1
b1(range.head) -> b2, b3
b2(implicit.return) -> b4
b3(range.body) -> b1
b4(exit)
`,
		},
		{
			name: "switch with fallthrough and default",
			// With a default clause the head has no direct edge to the
			// join; fallthrough wires case 1 into case 2.
			body: `
	switch x {
	case 1:
		a()
		fallthrough
	case 2:
		b()
	default:
		c()
	}
`,
			want: `b0(entry) -> b2, b3, b4
b1(implicit.return) -> b5
b2(switch.case) -> b3
b3(switch.case) -> b1
b4(switch.case) -> b1
b5(exit)
`,
		},
		{
			name: "switch without default",
			// No default: the head gets a no-case-matched edge to the
			// join, appended after the case edges.
			body: `
	switch x {
	case 1:
		a()
	case 2:
		b()
	}
`,
			want: `b0(entry) -> b2, b3, b1
b1(implicit.return) -> b4
b2(switch.case) -> b1
b3(switch.case) -> b1
b4(exit)
`,
		},
		{
			name: "labeled break out of nested loops",
			// break outer must skip the inner loop's break target and
			// land on the outer loop's join (b2).
			body: `
outer:
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if stop {
				break outer
			}
		}
	}
	done()
`,
			want: `b0(entry) -> b1
b1(for.head) -> b2, b4
b2(implicit.return) -> b11
b3(for.post) -> b1
b4(for.body) -> b5
b5(for.head) -> b6, b8
b6(join) -> b3
b7(for.post) -> b5
b8(for.body) -> b9, b10
b9(if.then) -> b2
b10(join) -> b7
b11(exit)
`,
		},
		{
			name: "panic path and defer",
			// panic terminates its block with an Exit edge but is
			// excluded from Terminators (checked separately below).
			body: `
	defer cleanup()
	if bad {
		panic("x")
	}
	return
`,
			want: `b0(entry) -> b1, b2
b1(panic) -> b3
b2(return) -> b3
b3(exit)
`,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := Build(parseBody(t, tt.body))
			if got := c.Dump(); got != tt.want {
				t.Errorf("CFG shape mismatch\ngot:\n%s\nwant:\n%s", got, tt.want)
			}
		})
	}
}

// TestDefersAndTerminators checks the two exit-path views analyzers
// use: Defers collects defer statements in source order, and
// Terminators returns normal-return Exit predecessors only — a panic
// block reaches Exit but must not be treated as a leak-check point.
func TestDefersAndTerminators(t *testing.T) {
	c := Build(parseBody(t, `
	defer cleanup()
	defer done()
	if bad {
		panic("x")
	}
	return
`))
	if len(c.Defers) != 2 {
		t.Fatalf("got %d defers, want 2", len(c.Defers))
	}
	panicBlk := blockByKind(t, c, "panic")
	terms := c.Terminators()
	if len(terms) != 1 || terms[0].Kind != "return" {
		t.Fatalf("Terminators() = %v, want exactly one return block", terms)
	}
	found := false
	for _, p := range c.Exit.Preds {
		if p == panicBlk {
			found = true
		}
	}
	if !found {
		t.Fatalf("panic block is not an Exit predecessor")
	}
}

// TestMustJoinAtMerge runs a must-analysis over a diamond: a fact added
// on both branches survives the join, a fact added on one branch does
// not. This is the semantics lockorder depends on for held-lock sets.
func TestMustJoinAtMerge(t *testing.T) {
	c := Build(parseBody(t, `
	if c {
		x = 1
	} else {
		x = 2
	}
	return
`))
	tr := func(b *Block, in Fact) Fact {
		m, _ := in.(MustSet)
		switch b.Kind {
		case "if.then":
			return m.With("both").With("then-only")
		case "if.else":
			return m.With("both")
		}
		return in
	}
	f, err := Forward(c, MustLattice, MustSet{}, tr)
	if err != nil {
		t.Fatal(err)
	}
	join := blockByKind(t, c, "return")
	got, _ := f.In[join].(MustSet)
	if want := []string{"both"}; len(got) != 1 || !got["both"] {
		t.Fatalf("In(join) = %v, want %v", got.Sorted(), want)
	}
}

// TestEnvUnionAtMerge runs the may-analysis over the same diamond: the
// abstract state at the join is the union of the per-branch bitsets.
// This is the semantics poolown depends on for ownership states.
func TestEnvUnionAtMerge(t *testing.T) {
	obj := types.NewVar(token.NoPos, nil, "x", nil)
	c := Build(parseBody(t, `
	if c {
		x = 1
	} else {
		x = 2
	}
	return
`))
	tr := func(b *Block, in Fact) Fact {
		e, _ := in.(Env)
		switch b.Kind {
		case "if.then":
			return e.Set(obj, 1)
		case "if.else":
			return e.Set(obj, 2)
		}
		return in
	}
	f, err := Forward(c, EnvLattice, Env{}, tr)
	if err != nil {
		t.Fatal(err)
	}
	join := blockByKind(t, c, "return")
	env, _ := f.In[join].(Env)
	if got := env.Get(obj); got != 3 {
		t.Fatalf("In(join)[x] = %b, want union 11b", got)
	}
}

// TestFixpointTerminatesOnPathologicalNest builds a worst-case nest —
// labeled loops with cross-level continue/break, a switch with
// fallthrough dispatch, and a forward goto — and checks the worklist
// converges well within its budget with a real (finite-height) lattice.
func TestFixpointTerminatesOnPathologicalNest(t *testing.T) {
	c := Build(parseBody(t, `
outer:
	for i := 0; i < n; i++ {
	mid:
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				switch k {
				case 0:
					continue mid
				case 1:
					break outer
				default:
					if k > j {
						goto done
					}
				}
				for m := 0; m < k; m++ {
					if m == 1 {
						continue outer
					}
				}
			}
		}
	}
done:
	x = 1
`))
	tr := func(b *Block, in Fact) Fact {
		m, _ := in.(MustSet)
		return m.With(b.Kind)
	}
	f, err := Forward(c, MustLattice, MustSet{}, tr)
	if err != nil {
		t.Fatalf("fixpoint did not converge on pathological nest: %v", err)
	}
	reached := 0
	for range f.Out {
		reached++
	}
	if reached < len(c.Blocks)/2 {
		t.Fatalf("only %d of %d blocks reached a fact; CFG wired wrong?\n%s",
			reached, len(c.Blocks), c.Dump())
	}
}

// TestFixpointBudgetError feeds Forward a deliberately non-converging
// lattice (Equal is never true) over a loop and checks it reports the
// budget error instead of hanging.
func TestFixpointBudgetError(t *testing.T) {
	c := Build(parseBody(t, `
	for {
		x = 1
	}
`))
	bad := Lattice{
		Join:  func(a, b Fact) Fact { return 1 },
		Equal: func(a, b Fact) bool { return false },
	}
	tr := func(b *Block, in Fact) Fact { return 1 }
	_, err := Forward(c, bad, 0, tr)
	if err == nil || !strings.Contains(err.Error(), "did not converge") {
		t.Fatalf("Forward = %v, want non-convergence error", err)
	}
}
