package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// wrappedcmp flags arithmetic, ordering, and conversions on wrapped
// wire snapshot IDs performed outside the blessed wrap/unwrap helpers.
//
// packet.WireID is a k-bit serial number (paper §5.3): after rollover,
// < and > on raw wire values give the wrong answer, and casting between
// wire and sequence space without reference-point arithmetic silently
// re-introduces the ambiguity the typed IDs exist to prevent. The only
// code allowed to move between the two spaces is package packet itself
// (the type's home, which implements Raw/WireIDFromRaw and the codecs)
// and the Wrap/Unwrap functions in package core.
var wrappedcmp = &analyzer{name: "wrappedcmp", run: func(p *pass) {
	scope := p.scope()
	if scope == "packet" {
		return
	}
	p.eachFunc(func(fd *ast.FuncDecl) {
		switch fd.Name.Name {
		case "wrap", "unwrap", "Wrap", "Unwrap":
			if scope == "core" {
				return
			}
		}
		checkWireMath(p, fd.Body)
	})
}}

func isWireID(t types.Type) bool { return namedIn(t, "packet", "WireID") }

// narrowInt reports whether t's underlying type is an integer narrower
// than 64 bits (or of unspecified platform width other than int/uint,
// which are 64-bit on all supported targets).
func narrowInt(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	switch b.Kind() {
	case types.Int8, types.Int16, types.Int32,
		types.Uint8, types.Uint16, types.Uint32, types.Uintptr:
		return true
	}
	return false
}

func checkWireMath(p *pass, body ast.Node) {
	typeOf := func(e ast.Expr) types.Type { return p.info.Types[e].Type }
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			if !ordersOrComputes(n.Op) {
				return true
			}
			if isWireID(typeOf(n.X)) || isWireID(typeOf(n.Y)) {
				p.reportf(n.OpPos,
					"%s on wrapped wire ID: unwrap with core.Unwrap before comparing or computing (rollover makes raw wire math wrong)",
					n.Op)
			}
		case *ast.AssignStmt:
			if n.Tok == token.ASSIGN || n.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range n.Lhs {
				if isWireID(typeOf(lhs)) {
					p.reportf(n.TokPos,
						"%s on wrapped wire ID: wire IDs are opaque outside core.Wrap/Unwrap", n.Tok)
				}
			}
		case *ast.IncDecStmt:
			if isWireID(typeOf(n.X)) {
				p.reportf(n.TokPos,
					"%s on wrapped wire ID: advance the unwrapped SeqID and re-wrap with core.Wrap", n.Tok)
			}
		case *ast.CallExpr:
			checkConversion(p, n)
		}
		return true
	})
}

// ordersOrComputes reports whether op is an ordered comparison or an
// arithmetic/bitwise operator. == and != are always safe on WireID.
func ordersOrComputes(op token.Token) bool {
	switch op {
	case token.LSS, token.LEQ, token.GTR, token.GEQ,
		token.ADD, token.SUB, token.MUL, token.QUO, token.REM,
		token.AND, token.OR, token.XOR, token.AND_NOT, token.SHL, token.SHR:
		return true
	}
	return false
}

func checkConversion(p *pass, call *ast.CallExpr) {
	tv, ok := p.info.Types[call.Fun]
	if !ok || !tv.IsType() || len(call.Args) != 1 {
		return
	}
	dst := tv.Type
	arg := call.Args[0]
	argTV := p.info.Types[arg]
	src := argTV.Type

	// Untyped constants carry no wire/sequence history; converting one
	// into either ID space is how literals enter the system.
	if argTV.Value != nil {
		return
	}

	switch {
	case isWireID(dst) && !isWireID(src):
		p.reportf(call.Pos(),
			"conversion into wrapped wire ID outside core.Wrap: use core.Wrap (or packet.WireIDFromRaw at a codec boundary)")
	case isWireID(src) && !isWireID(dst):
		p.reportf(call.Pos(),
			"conversion out of wrapped wire ID outside core.Unwrap: use core.Unwrap (or WireID.Raw at a codec boundary)")
	case namedIn(src, "packet", "SeqID") && narrowInt(dst):
		p.reportf(call.Pos(),
			"narrowing conversion of snapshot SeqID to %s discards rollover history: wrap with core.Wrap instead",
			dst)
	}
}
