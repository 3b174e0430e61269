// Package collmatch checks that collective operations are not guarded by
// rank-dependent conditionals. A collective (Barrier, Bcast, Gather, ...)
// must be entered by every member of the communicator in the same order;
// when only a rank-dependent subset reaches the call, the members that do
// enter block forever waiting for the ones that never will.
//
// The check is flow-sensitive within one function body: an if condition
// is rank-dependent when its expression is data-dependent on a Rank()
// call (tracked through local assignments with the def-use index), and
// the collectives a branch performs are found transitively through the
// cross-package program view, so a helper that hides an Allreduce still
// counts.
//
// Balanced branches are the sanctioned idiom and are not reported: when
// the alternate path of the conditional performs the same collective —
// typically root-side and leaf-side halves of a gather — every member
// still enters the operation, just with different arguments.
package collmatch

import (
	"go/ast"
	"go/token"
	"sort"

	"repro/internal/analysis"
)

// Analyzer is the collmatch check.
var Analyzer = &analysis.Analyzer{
	Name: "collmatch",
	Doc:  "report collective operations guarded by rank-dependent conditionals that not all members reach",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	reported := make(map[token.Pos]bool)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkBody(pass, fn.Body, reported)
				}
			case *ast.FuncLit:
				checkBody(pass, fn.Body, reported)
			}
			return true
		})
	}
	return nil
}

func checkBody(pass *analysis.Pass, body *ast.BlockStmt, reported map[token.Pos]bool) {
	du := analysis.NewDefUse(body)
	ast.Inspect(body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		if !du.Tainted(ifs.Cond, analysis.RankSource) {
			return true
		}
		thenOps := collOps(pass, ifs.Body)
		elseOps := map[string]token.Pos{}
		if ifs.Else != nil {
			elseOps = collOps(pass, ifs.Else)
		}
		flag := func(ops, other map[string]token.Pos) {
			// In name order: one helper call can stand for several
			// collectives, and which of them names the finding must not
			// depend on map iteration.
			names := make([]string, 0, len(ops))
			for op := range ops {
				names = append(names, op)
			}
			sort.Strings(names)
			for _, op := range names {
				pos := ops[op]
				if _, balanced := other[op]; balanced {
					continue
				}
				if reported[pos] {
					continue
				}
				reported[pos] = true
				pass.Reportf(pos, "collective %s is guarded by a rank-dependent condition with no matching %s on the alternate path: members that take the other branch never enter it", op, op)
			}
		}
		flag(thenOps, elseOps)
		flag(elseOps, thenOps)
		return true
	})
}

// collOps collects the collective operations a branch subtree performs,
// directly or through helpers the program view can resolve, keyed by
// operation name with the position of the first occurrence.
func collOps(pass *analysis.Pass, branch ast.Node) map[string]token.Pos {
	out := make(map[string]token.Pos)
	ast.Inspect(branch, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name := analysis.CalleeName(call)
		if name == "" {
			return true
		}
		for op := range pass.Prog.PerformsCollective(name, len(call.Args), pass.Package()) {
			if _, seen := out[op]; !seen {
				out[op] = call.Pos()
			}
		}
		return true
	})
	return out
}
