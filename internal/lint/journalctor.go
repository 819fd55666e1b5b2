package lint

import "go/ast"

// journalctor forbids constructing journal.Event values by composite
// literal outside package journal.
//
// The flight recorder's audit pass (paper §3–4: every protocol
// transition must leave a checkable trace) relies on Event invariants —
// kind-specific field combinations, sentinel ports/channels — that only
// the constructors in journal/events.go establish. A hand-rolled
// literal can produce an event the auditor misreads or silently skips,
// so literals are confined to the defining package.
var journalctor = &analyzer{name: "journalctor", run: func(p *pass) {
	if p.scope() == "journal" {
		return
	}
	for _, file := range p.files {
		ast.Inspect(file, func(n ast.Node) bool {
			if lit, ok := n.(*ast.CompositeLit); ok && namedIn(p.info.Types[lit].Type, "journal", "Event") {
				p.reportf(lit.Pos(),
					"journal.Event composite literal outside package journal: use the constructors in events.go so the audit chain stays checkable")
			}
			return true
		})
	}
}}
