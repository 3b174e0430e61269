// Package reconpure checks that benchmark functions handed to
// Process.Recon perform no communication. Recon runs the benchmark on
// every process concurrently to refresh the relative-speed estimates; a
// benchmark that sends, receives, or enters a collective both perturbs
// the very timing being measured and can deadlock the refresh (each
// process is inside Recon's own barrier protocol while the benchmark
// blocks on a partner that has not reached it).
//
// The analysis resolves the benchmark body syntactically: a FuncLit in
// the BenchmarkFunc composite's Run field, either written inline at the
// Recon call or assigned to a local variable earlier in the same
// function. hmpi.DefaultBenchmark(n) is trusted. Any call to a
// point-to-point, collective, or communicator-obtaining method inside
// the resolved body is reported.
package reconpure

import (
	"go/ast"

	"repro/internal/analysis"
)

// Analyzer is the reconpure check.
var Analyzer = &analysis.Analyzer{
	Name: "reconpure",
	Doc:  "report communication calls inside Recon benchmark functions",
	Run:  run,
}

// banned reports the method names a benchmark body must not call: all
// point-to-point and collective operations, plus the accessors that hand
// out a communicator (obtaining one inside a benchmark is the first step
// of the same mistake).
func banned(name string) bool {
	return analysis.IsCommOp(name) || name == "CommWorld" || name == "Comm"
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			fn, ok := n.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				return true
			}
			checkFunc(pass, fn.Body)
			return true
		})
	}
	return nil
}

// checkFunc scans one function body: it records local assignments of
// composite literals and function literals so idents at the Recon call
// can be resolved, then inspects every Recon argument.
func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	bindings := map[string]ast.Expr{}
	ast.Inspect(body, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == len(as.Rhs) {
			for i, lhs := range as.Lhs {
				if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
					bindings[id.Name] = as.Rhs[i]
				}
			}
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Recon" {
			return true
		}
		for _, arg := range call.Args {
			if b := resolveBench(arg, bindings); b != nil {
				checkBenchBody(pass, b)
			}
		}
		return true
	})
}

// resolveBench maps a Recon argument to the benchmark body to inspect.
// DefaultBenchmark calls and anything unresolvable return nil.
func resolveBench(e ast.Expr, bindings map[string]ast.Expr) *ast.BlockStmt {
	switch x := e.(type) {
	case *ast.FuncLit:
		return x.Body
	case *ast.CompositeLit:
		// BenchmarkFunc{Units: ..., Run: func(...){...}}
		for _, el := range x.Elts {
			kv, ok := el.(*ast.KeyValueExpr)
			if !ok {
				continue
			}
			if k, ok := kv.Key.(*ast.Ident); ok && k.Name == "Run" {
				return resolveBench(kv.Value, bindings)
			}
		}
	case *ast.Ident:
		if b, ok := bindings[x.Name]; ok {
			delete(bindings, x.Name) // cut self-referential rebinding loops
			body := resolveBench(b, bindings)
			bindings[x.Name] = b
			return body
		}
	case *ast.CallExpr:
		// hmpi.DefaultBenchmark(n) is pure by construction; any other
		// call producing the benchmark is out of syntactic reach.
		return nil
	case *ast.UnaryExpr:
		return resolveBench(x.X, bindings)
	case *ast.ParenExpr:
		return resolveBench(x.X, bindings)
	}
	return nil
}

func checkBenchBody(pass *analysis.Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !banned(sel.Sel.Name) {
			return true
		}
		pass.Reportf(call.Pos(),
			"Recon benchmark must be communication-free: calls %s (it runs concurrently on every process and skews the speed measurement)",
			sel.Sel.Name)
		return true
	})
}
