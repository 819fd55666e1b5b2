package flow

import (
	"go/ast"
	"strings"
)

// Directive scans a doc comment for a //speedlight:<name> directive and
// returns its argument string (the rest of the line, trimmed). The
// second result reports whether the directive is present at all, so
// argument-less directives are distinguishable from absent ones.
//
// Directives in use across the tree:
//
//	//speedlight:hotpath                     (hotalloc, hotgate)
//	//speedlight:pool-transfer <param>...    (poolown: callee takes ownership)
//	//speedlight:pool-transfer-cell <param>... (poolown: write-once cell push;
//	                                         consumes at call sites, body exempt)
//	//speedlight:pool-unchecked              (poolown: deliberate violations)
//	//speedlight:shard-handoff               (shardsafe: blessed cross-shard
//	                                         handoff implementation)
//	//speedlight:shard                       (shardsafe: worker entry point)
//	//speedlight:global-only                 (shardsafe: GlobalDomain-only API)
//	//speedlight:allocgate <name>...         (hotgate: test covers these hot paths)
//	//speedlight:api <reason>                (TestNoTestOnlyExports: an export
//	                                         no non-test file names, and why)
func Directive(doc *ast.CommentGroup, name string) (string, bool) {
	if doc == nil {
		return "", false
	}
	prefix := "//speedlight:" + name
	for _, c := range doc.List {
		text := strings.TrimSpace(c.Text)
		if !strings.HasPrefix(text, prefix) {
			continue
		}
		rest := text[len(prefix):]
		if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
			continue // longer directive name, e.g. pool-transfer vs pool
		}
		return strings.TrimSpace(rest), true
	}
	return "", false
}
