// Package ftcontract checks the fault-tolerance contract at failure
// detection sites. When IsFailureError (or an errors.As against
// *ProcessFailedError) identifies a process failure, the surviving
// processes hold a communicator with a dead member: further
// point-to-point or collective traffic on it can block forever waiting
// on the dead rank. The contract is that a detection branch must either
// run a recovery operation (Shrink, AgreeFailed, GroupRecreate, Revoke,
// GroupFree, Health, RunResilient) before any further
// communication, or leave the computation (return, panic, break,
// continue, goto).
//
// Two findings:
//
//   - a communication call inside the detection branch before any
//     recovery operation, reported at the call;
//   - a detection branch that neither recovers nor exits, reported at
//     the if statement (the failure is observed and then ignored — the
//     next collective hangs).
package ftcontract

import (
	"go/ast"

	"repro/internal/analysis"
)

// Analyzer is the ftcontract check.
var Analyzer = &analysis.Analyzer{
	Name: "ftcontract",
	Doc:  "report failure-detection branches that communicate before recovering or ignore the failure",
	Run:  run,
}

var recoveryOps = map[string]bool{
	"Shrink": true, "AgreeFailed": true, "GroupRecreate": true,
	"Revoke": true, "GroupFree": true, "Health": true,
	"RunResilient": true,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		pfVars := processFailedVars(f)
		ast.Inspect(f, func(n ast.Node) bool {
			ifs, ok := n.(*ast.IfStmt)
			if !ok || !detectsFailure(ifs.Cond, pfVars) {
				return true
			}
			checkBranch(pass, ifs)
			return true
		})
	}
	return nil
}

// processFailedVars collects the names of variables declared in the file
// with type *ProcessFailedError (the target shape of errors.As).
func processFailedVars(f *ast.File) map[string]bool {
	out := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		vs, ok := n.(*ast.ValueSpec)
		if !ok {
			return true
		}
		star, ok := vs.Type.(*ast.StarExpr)
		if !ok {
			return true
		}
		var typeName string
		switch t := star.X.(type) {
		case *ast.Ident:
			typeName = t.Name
		case *ast.SelectorExpr:
			typeName = t.Sel.Name
		}
		if typeName != "ProcessFailedError" {
			return true
		}
		for _, name := range vs.Names {
			out[name.Name] = true
		}
		return true
	})
	return out
}

// detectsFailure reports whether the condition tests for a process
// failure: a call to IsFailureError, or errors.As targeting a variable
// declared as *ProcessFailedError.
func detectsFailure(cond ast.Expr, pfVars map[string]bool) bool {
	found := false
	ast.Inspect(cond, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			if fun.Name == "IsFailureError" {
				found = true
			}
		case *ast.SelectorExpr:
			if fun.Sel.Name == "IsFailureError" {
				found = true
			}
			if fun.Sel.Name == "As" && len(call.Args) == 2 && mentionsProcessFailed(call.Args[1], pfVars) {
				found = true
			}
		}
		return true
	})
	return found
}

func mentionsProcessFailed(e ast.Expr, pfVars map[string]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && (id.Name == "ProcessFailedError" || pfVars[id.Name]) {
			found = true
		}
		return true
	})
	return found
}

// branchState accumulates what the detection branch does, in source
// order.
type branchState struct {
	pass      *analysis.Pass
	recovered bool
	exits     bool
}

func checkBranch(pass *analysis.Pass, ifs *ast.IfStmt) {
	st := &branchState{pass: pass}
	st.block(ifs.Body)
	if !st.recovered && !st.exits {
		pass.Reportf(ifs.Pos(),
			"failure detected but the branch neither recovers (Shrink/AgreeFailed/GroupRecreate) nor exits; the next operation on the communicator can hang")
	}
}

func (st *branchState) block(b *ast.BlockStmt) {
	for _, s := range b.List {
		st.stmt(s)
	}
}

func (st *branchState) stmt(s ast.Stmt) {
	switch x := s.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		// return / break / continue / goto leave the branch.
		st.exits = true
	case *ast.ExprStmt:
		st.expr(x.X)
	case *ast.AssignStmt:
		for _, e := range x.Rhs {
			st.expr(e)
		}
	case *ast.DeferStmt:
		st.expr(x.Call)
	case *ast.GoStmt:
		st.expr(x.Call)
	case *ast.IfStmt:
		if x.Init != nil {
			st.stmt(x.Init)
		}
		st.expr(x.Cond)
		// Conservative join: the branch counts as recovering/exiting if
		// either arm does. A half-recovered branch is beyond a syntactic
		// pass; the comm-before-recovery check still walks both arms.
		st.block(x.Body)
		if x.Else != nil {
			st.stmt(x.Else)
		}
	case *ast.BlockStmt:
		st.block(x)
	case *ast.ForStmt:
		if x.Init != nil {
			st.stmt(x.Init)
		}
		if x.Cond != nil {
			st.expr(x.Cond)
		}
		st.block(x.Body)
	case *ast.RangeStmt:
		st.expr(x.X)
		st.block(x.Body)
	case *ast.SwitchStmt:
		if x.Init != nil {
			st.stmt(x.Init)
		}
		if x.Tag != nil {
			st.expr(x.Tag)
		}
		for _, c := range x.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				for _, cs := range cc.Body {
					st.stmt(cs)
				}
			}
		}
	}
}

func (st *branchState) expr(e ast.Expr) {
	ast.Inspect(e, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		var name string
		switch fun := call.Fun.(type) {
		case *ast.SelectorExpr:
			name = fun.Sel.Name
		case *ast.Ident:
			name = fun.Name
		default:
			return true
		}
		if name == "panic" || name == "Fatal" || name == "Fatalf" || name == "Exit" {
			st.exits = true
			return true
		}
		if recoveryOps[name] {
			st.recovered = true
			return true
		}
		if analysis.IsCommOp(name) && !st.recovered {
			st.pass.Reportf(call.Pos(),
				"%s on a communicator with a detected failure before recovery; call Shrink or AgreeFailed first", name)
		}
		return true
	})
}
