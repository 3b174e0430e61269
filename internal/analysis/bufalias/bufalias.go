// Package bufalias enforces the buffer-pool discipline of internal/mpi:
// pooled payload slices are recycled the moment they are released, so a
// reference that outlives the release point reads another message's
// bytes.
//
// Two shapes are checked:
//
//   - A function that recycles an envelope — releaseEnvelope(e) or
//     putEnv(e) — consumes the payload e.data in place: the bytes go back
//     to the pool with the envelope, so the function must not retain them.
//     Storing e.data (or a local alias of it) into anything that survives
//     the call — an outer variable, a struct field, a map or slice element,
//     a channel — is reported. Reading it, copying out of it, or
//     appending its elements with `append(dst, e.data...)` is fine; a
//     consumer that keeps the payload takes it through e.retained(), which
//     copies pool-backed bytes out first.
//
//   - release()/releaseEnvelope()/putEnv() return a buffer to the pool;
//     any later use of the released variable in the same statement
//     sequence is reported. `defer pb.release()` is exempt (it runs at
//     function exit), and rebinding the variable starts a fresh
//     lifetime.
package bufalias

import (
	"go/ast"
	"go/token"

	"repro/internal/analysis"
)

// Analyzer is the bufalias check.
var Analyzer = &analysis.Analyzer{
	Name: "bufalias",
	Doc:  "report pooled payload slices retained past their consume or release point",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	// Nested function literals are visited both from the enclosing
	// declaration's walk and as their own body; reported dedupes.
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
	// Front 1: in-place consumers — statement lists that recycle an
	// envelope — that retain its payload on the way there. (What follows
	// the release is front 2's business.)
	ast.Inspect(body, func(n ast.Node) bool {
		var list []ast.Stmt
		switch b := n.(type) {
		case *ast.BlockStmt:
			list = b.List
		case *ast.CaseClause:
			list = b.Body
		}
		for i, st := range list {
			es, ok := st.(*ast.ExprStmt)
			if !ok {
				continue
			}
			call, ok := es.X.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				continue
			}
			if env, ok := releaseTarget(call); ok {
				checkRetention(pass, list[:i], env, reported)
			}
		}
		return true
	})

	// Front 2: uses after an explicit release. Releases inside nested
	// literals register only in the literal's own walk, so this front
	// never double-reports.
	(&releaseWalker{pass: pass}).stmts(body.List, map[string]bool{})
}

// checkRetention reports stores that let env.data (or a local alias of
// it) survive the statements leading up to env's release.
func checkRetention(pass *analysis.Pass, stmts []ast.Stmt, env string, reported map[token.Pos]bool) {
	aliases := map[string]bool{}
	isAliased := func(e ast.Expr) bool {
		switch x := e.(type) {
		case *ast.Ident:
			return aliases[x.Name]
		case *ast.SelectorExpr:
			id, ok := x.X.(*ast.Ident)
			return ok && id.Name == env && x.Sel.Name == "data"
		}
		return false
	}
	report := func(pos token.Pos, how string) {
		if !reported[pos] {
			reported[pos] = true
			pass.Reportf(pos, "in-place consumer %s the pooled payload of %s: the slice is recycled with the envelope", how, env)
		}
	}
	// Two passes so aliases introduced below their escape site still
	// count; only the second pass reports. Bodies are small.
	for round := 0; round < 2; round++ {
		final := round == 1
		inspect := func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.AssignStmt:
				for i, rhs := range x.Rhs {
					if !isAliased(rhs) || i >= len(x.Lhs) {
						continue
					}
					if id, ok := x.Lhs[i].(*ast.Ident); ok {
						if id.Name == "_" {
							continue
						}
						if x.Tok == token.DEFINE {
							aliases[id.Name] = true
							continue
						}
					}
					// `=` to anything — an outer variable, a field, an
					// element — retains the slice.
					if final {
						report(rhs.Pos(), "retains")
					}
				}
			case *ast.SendStmt:
				if isAliased(x.Value) && final {
					report(x.Value.Pos(), "sends")
				}
			case *ast.CallExpr:
				// append(dst, p) stores the slice header itself;
				// append(dst, p...) copies elements and is fine.
				if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "append" && x.Ellipsis == token.NoPos && len(x.Args) > 1 {
					for _, a := range x.Args[1:] {
						if isAliased(a) && final {
							report(a.Pos(), "appends")
						}
					}
				}
			}
			return true
		}
		for _, st := range stmts {
			ast.Inspect(st, inspect)
		}
	}
}

// releaseWalker tracks explicitly released buffer variables through a
// statement sequence.
type releaseWalker struct {
	pass *analysis.Pass
}

// releaseTarget recognises `pb.release()`, `releaseEnvelope(e)` and
// `putEnv(e)` and returns the released variable name.
func releaseTarget(call *ast.CallExpr) (string, bool) {
	switch analysis.CalleeName(call) {
	case "release":
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && len(call.Args) == 0 {
			if id, ok := sel.X.(*ast.Ident); ok {
				return id.Name, true
			}
		}
	case "releaseEnvelope", "putEnv":
		if len(call.Args) == 1 {
			if id, ok := call.Args[0].(*ast.Ident); ok {
				return id.Name, true
			}
		}
	}
	return "", false
}

func (w *releaseWalker) stmts(list []ast.Stmt, released map[string]bool) {
	for _, s := range list {
		w.stmt(s, released)
	}
}

func (w *releaseWalker) stmt(s ast.Stmt, released map[string]bool) {
	switch x := s.(type) {
	case *ast.ExprStmt:
		if call, ok := x.X.(*ast.CallExpr); ok {
			if name, ok := releaseTarget(call); ok {
				// A second release of the same variable is itself a use
				// after release (double free).
				if released[name] {
					w.pass.Reportf(call.Pos(), "use of %s after release: the pooled buffer may already belong to another message", name)
				}
				released[name] = true
				return
			}
		}
		w.checkUses([]ast.Node{x}, released)

	case *ast.DeferStmt:
		// Deferred releases run at function exit; they neither count as
		// a release point here nor as a use.
		if _, ok := releaseTarget(x.Call); ok {
			return
		}
		w.checkUses([]ast.Node{x}, released)

	case *ast.AssignStmt:
		for _, rhs := range x.Rhs {
			w.checkUses([]ast.Node{rhs}, released)
		}
		// Rebinding a released name starts a fresh lifetime.
		for _, lhs := range x.Lhs {
			if id, ok := lhs.(*ast.Ident); ok {
				delete(released, id.Name)
			} else {
				w.checkUses([]ast.Node{lhs}, released)
			}
		}

	case *ast.BlockStmt:
		w.stmts(x.List, released)

	case *ast.IfStmt:
		if x.Init != nil {
			w.stmt(x.Init, released)
		}
		w.checkUses([]ast.Node{x.Cond}, released)
		// Branches see the releases so far but do not leak theirs out:
		// a release on one conditional path does not poison the code
		// after the if.
		w.stmt(x.Body, copyOf(released))
		if x.Else != nil {
			w.stmt(x.Else, copyOf(released))
		}

	case *ast.ForStmt:
		if x.Init != nil {
			w.stmt(x.Init, released)
		}
		if x.Cond != nil {
			w.checkUses([]ast.Node{x.Cond}, released)
		}
		w.stmt(x.Body, copyOf(released))
		if x.Post != nil {
			w.stmt(x.Post, copyOf(released))
		}

	case *ast.RangeStmt:
		w.checkUses([]ast.Node{x.X}, released)
		w.stmt(x.Body, copyOf(released))

	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		// Conservative: check uses inside, releases stay local.
		w.checkUses([]ast.Node{s}, copyOf(released))

	default:
		w.checkUses([]ast.Node{s}, released)
	}
}

func copyOf(m map[string]bool) map[string]bool {
	out := make(map[string]bool, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// checkUses reports every mention of a released variable in the nodes.
func (w *releaseWalker) checkUses(nodes any, released map[string]bool) {
	if len(released) == 0 {
		return
	}
	visit := func(n ast.Node) {
		if n == nil {
			return
		}
		ast.Inspect(n, func(m ast.Node) bool {
			// A nested release is a double free; report the mention too.
			if id, ok := m.(*ast.Ident); ok && released[id.Name] {
				w.pass.Reportf(id.Pos(), "use of %s after release: the pooled buffer may already belong to another message", id.Name)
			}
			return true
		})
	}
	switch ns := nodes.(type) {
	case []ast.Node:
		for _, n := range ns {
			visit(n)
		}
	case []ast.Expr:
		for _, e := range ns {
			visit(e)
		}
	}
}
