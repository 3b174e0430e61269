// Package tagconst checks message-tag discipline on point-to-point
// operations. Matching in the runtime is by (source, tag); two classes
// of mistake defeat it silently:
//
//   - a tag computed by a function call: the value can differ across
//     processes or iterations, so a send and its intended receive stop
//     matching under exactly the reorderings that are hardest to
//     reproduce. Tags should be constants (or stable expressions over
//     constants and loop indices);
//   - within one block, the literal tags used by sends and the literal
//     tags used by receives are disjoint: under SPMD every process runs
//     the same block, so a receive posted with a tag no send in the
//     block uses can only be satisfied from another phase — usually a
//     copy-paste mismatch that deadlocks at runtime.
package tagconst

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the tagconst check.
var Analyzer = &analysis.Analyzer{
	Name: "tagconst",
	Doc:  "report message tags computed by calls, and blocks whose literal send and receive tags cannot match",
	Run:  run,
}

// tagArgs maps each point-to-point operation to the indices of its tag
// arguments and whether each is a send or receive tag.
type tagUse struct {
	idx  int
	send bool
}

// p2pOp describes one mpi.Comm point-to-point method: its exact argument
// count and where the tags sit. The analyzer is syntactic, so the arity
// is the only signature evidence available to tell a real p2p call from
// an unrelated method that happens to share the name (worker pools and
// job queues like to call their enqueue/dequeue methods Send and Recv);
// a call whose argument count differs is not the mpi operation and is
// skipped entirely.
type p2pOp struct {
	arity int
	uses  []tagUse
}

var tagArgs = map[string]p2pOp{
	"Send":       {3, []tagUse{{1, true}}},
	"Isend":      {3, []tagUse{{1, true}}},
	"IsendOwned": {3, []tagUse{{1, true}}},
	"Recv":       {2, []tagUse{{1, false}}},
	"Irecv":      {2, []tagUse{{1, false}}},
	"Probe":      {2, []tagUse{{1, false}}},
	"Iprobe":     {2, []tagUse{{1, false}}},
	"Sendrecv":   {5, []tagUse{{1, true}, {4, false}}},
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			block, ok := n.(*ast.BlockStmt)
			if !ok {
				return true
			}
			checkBlock(pass, block)
			return true
		})
	}
	return nil
}

// checkBlock inspects the statements directly inside one block (nested
// blocks are visited by their own checkBlock call, so each operation is
// attributed to its innermost block).
func checkBlock(pass *analysis.Pass, block *ast.BlockStmt) {
	sendTags := map[string]bool{}
	recvTags := map[string]bool{}
	var firstRecv token.Pos

	for _, s := range block.List {
		eachDirectCall(s, func(call *ast.CallExpr) {
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return
			}
			op, ok := tagArgs[sel.Sel.Name]
			if !ok || len(call.Args) != op.arity {
				return
			}
			for _, u := range op.uses {
				tag := call.Args[u.idx]
				if hasCall(tag) {
					pass.Reportf(tag.Pos(),
						"tag of %s is computed by a function call; tags must be stable across processes — use a constant",
						sel.Sel.Name)
					continue
				}
				key, ok := tagKey(tag)
				if !ok {
					continue
				}
				if u.send {
					sendTags[key] = true
				} else {
					recvTags[key] = true
					if firstRecv == token.NoPos {
						firstRecv = tag.Pos()
					}
				}
			}
		})
	}

	if len(sendTags) == 0 || len(recvTags) == 0 {
		return
	}
	for k := range sendTags {
		if recvTags[k] {
			return
		}
	}
	pass.Reportf(firstRecv,
		"send tags %s and receive tags %s in this block are disjoint; under SPMD no message sent here can match a receive posted here",
		keyList(sendTags), keyList(recvTags))
}

// eachDirectCall visits the call expressions of one statement without
// descending into nested blocks or function literals.
func eachDirectCall(s ast.Stmt, fn func(*ast.CallExpr)) {
	var exprs []ast.Expr
	switch x := s.(type) {
	case *ast.ExprStmt:
		exprs = []ast.Expr{x.X}
	case *ast.AssignStmt:
		exprs = x.Rhs
	case *ast.ReturnStmt:
		exprs = x.Results
	case *ast.DeferStmt:
		exprs = []ast.Expr{x.Call}
	case *ast.GoStmt:
		exprs = []ast.Expr{x.Call}
	case *ast.IfStmt:
		if x.Init != nil {
			eachDirectCall(x.Init, fn)
		}
		exprs = []ast.Expr{x.Cond}
	case *ast.SendStmt:
		exprs = []ast.Expr{x.Value}
	default:
		return
	}
	for _, e := range exprs {
		ast.Inspect(e, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok {
				fn(call)
			}
			return true
		})
	}
}

// hasCall reports whether the expression contains any call (conversions
// are indistinguishable syntactically and count; a tag should not need
// one).
func hasCall(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.CallExpr); ok {
			found = true
		}
		return true
	})
	return found
}

// tagKey renders comparable literal tags: integer literals by value
// text, plain identifiers (named constants) by name. Anything else is
// out of reach for the disjointness check.
func tagKey(e ast.Expr) (string, bool) {
	switch x := e.(type) {
	case *ast.BasicLit:
		if x.Kind == token.INT {
			return x.Value, true
		}
	case *ast.Ident:
		return x.Name, true
	case *ast.SelectorExpr:
		// pkg.Const or recv.field used as a tag: key by the final name.
		return x.Sel.Name, true
	}
	return "", false
}

func keyList(m map[string]bool) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return fmt.Sprintf("{%s}", strings.Join(keys, ", "))
}
