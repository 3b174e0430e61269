// Package tagconst checks message-tag discipline on point-to-point
// operations. Matching in the runtime is by (source, tag), and a tag
// computed by a function call defeats it silently: the value can differ
// across processes or iterations, so a send and its intended receive stop
// matching under exactly the reorderings that are hardest to reproduce.
// Tags should be constants (or stable expressions over constants and loop
// indices). A send and a receive whose tags never match deadlock the run,
// and the runtime reports that (mpi.DeadlockError).
package tagconst

import (
	"go/ast"

	"repro/internal/analysis"
)

// Analyzer is the tagconst check.
var Analyzer = &analysis.Analyzer{
	Name: "tagconst",
	Doc:  "report message tags computed by calls",
	Run:  run,
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
	tags  []int
}

var tagArgs = map[string]p2pOp{
	"Send":       {3, []int{1}},
	"Isend":      {3, []int{1}},
	"IsendOwned": {3, []int{1}},
	"Recv":       {2, []int{1}},
	"Irecv":      {2, []int{1}},
	"Probe":      {2, []int{1}},
	"Iprobe":     {2, []int{1}},
	"Sendrecv":   {5, []int{1, 4}},
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			op, ok := tagArgs[sel.Sel.Name]
			if !ok || len(call.Args) != op.arity {
				return true
			}
			for _, i := range op.tags {
				if hasCall(call.Args[i]) {
					pass.Reportf(call.Args[i].Pos(),
						"tag of %s is computed by a function call; tags must be stable across processes — use a constant",
						sel.Sel.Name)
				}
			}
			return true
		})
	}
	return nil
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
