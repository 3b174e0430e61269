package analysis

// The lifetime walk: one flow-sensitive walker that follows a started
// handle through a function body to its release, shared by the analyzers
// whose contract is "what you start you must finish" (groupfree,
// runtimeclose). An analyzer is a Handle table from flow.go plus the
// wording of its findings; the rules are the same for both:
//
//   - a start result bound to a variable that is never released (and never
//     escapes the function) is reported at the start;
//   - a return statement crossed while a handle that is released elsewhere
//     in the body is still live is reported, unless the enclosing branch
//     condition mentions the handle variable or the identifier bound beside
//     it (the idioms `if err != nil { return }` — the handle is nil on
//     error — and `if !h.IsMember(g) { return }` — non-selected processes
//     hold nil);
//   - a handle passed to a helper the program view can resolve is judged
//     by the helper's summary: a helper that reaches a release counts as
//     one, a helper that merely reads the handle leaves the obligation
//     here, and a helper that stores or returns it takes ownership;
//   - a call resolving only to helpers that return a handle they started
//     begins a tracked lifetime in the caller, exactly like a direct start;
//   - a start whose result is dropped (a bare statement or a `_` binding)
//     is reported when the table has a Discarded message.
//
// A value that escapes (returned, stored, appended, or passed to a call
// the program view cannot resolve) is trusted to be released elsewhere.

import "go/ast"

// Lifetime is one handle kind's check: the table of calls that start,
// release and read the handle, and the findings' wording. Each message is
// a format taking the start's name (StartName).
type Lifetime struct {
	Handle *Handle
	// Never is reported at a start whose handle is never released.
	Never string
	// Return is reported at a return crossed while the handle is live.
	Return string
	// Discarded is reported at a start whose result nothing can reach;
	// empty where dropping the result is an accepted idiom.
	Discarded string
}

// Check is the Analyzer.Run of a lifetime analyzer: it walks every
// function body and literal of the package on its own.
func (l *Lifetime) Check(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					l.checkBody(pass, fn.Body)
				}
			case *ast.FuncLit:
				l.checkBody(pass, fn.Body)
			}
			return true
		})
	}
	return nil
}

// track follows one bound handle variable through the body.
type track struct {
	name string
	// errName is the identifier bound beside the handle, if any: a return
	// guarded by it is the handle-is-nil-on-error path.
	errName  string
	pos      ast.Node
	what     string // the start's name, for messages
	released bool
	escaped  bool
}

type walker struct {
	*Lifetime
	pass   *Pass
	tracks []*track
	// inClosure disables start tracking and return-path reporting while
	// scanning a nested function literal: its starts belong to its own
	// checkBody, and its returns are not the tracked function's.
	inClosure bool
	// reportable holds the start positions of handles released on some
	// path; only those get return-path reports (a handle never released
	// at all is reported once, at its start). Nil during the
	// state-collection pass, which reports nothing.
	reportable map[ast.Node]bool
}

func (l *Lifetime) checkBody(pass *Pass, body *ast.BlockStmt) {
	// Pass 1: collect final per-track state without reporting.
	w1 := &walker{Lifetime: l, pass: pass}
	w1.stmts(body.List, nil)
	reportable := make(map[ast.Node]bool)
	for _, tr := range w1.tracks {
		if tr.released {
			reportable[tr.pos] = true
		}
	}
	// Pass 2: report discarded starts, and early-return leaks of handles
	// that do get released somewhere.
	w2 := &walker{Lifetime: l, pass: pass, reportable: reportable}
	w2.stmts(body.List, nil)
	for _, tr := range w1.tracks {
		if !tr.released && !tr.escaped {
			pass.Reportf(tr.pos.Pos(), l.Never, tr.what)
		}
	}
}

func (w *walker) lookup(name string) *track {
	if name == "" || name == "_" {
		return nil
	}
	// Latest registration wins: rebinding a name starts a new lifetime.
	for i := len(w.tracks) - 1; i >= 0; i-- {
		if w.tracks[i].name == name {
			return w.tracks[i]
		}
	}
	return nil
}

// tracked returns the live track an expression names, if it is a bare
// identifier bound to one.
func (w *walker) tracked(e ast.Expr) *track {
	if id, ok := e.(*ast.Ident); ok {
		return w.lookup(id.Name)
	}
	return nil
}

// stmts walks a statement list. guards holds the identifier names
// mentioned by enclosing branch conditions; a return under such a guard
// is not reported for tracks whose handle or error variable is among them.
func (w *walker) stmts(list []ast.Stmt, guards map[string]bool) {
	for _, s := range list {
		w.stmt(s, guards)
	}
}

func (w *walker) stmt(s ast.Stmt, guards map[string]bool) {
	switch x := s.(type) {
	case *ast.BlockStmt:
		w.stmts(x.List, guards)

	case *ast.AssignStmt:
		if w.start(x) {
			return
		}
		// An assignment that stores a tracked handle anywhere marks it
		// escaped (rhs scan); lhs index/selector expressions are scanned
		// too.
		for _, e := range x.Lhs {
			w.scanExpr(e)
		}
		for _, e := range x.Rhs {
			w.scanExpr(e)
		}

	case *ast.IfStmt:
		if x.Init != nil {
			w.stmt(x.Init, guards)
		}
		w.scanExpr(x.Cond)
		inner := withGuards(guards, x.Cond)
		w.stmt(x.Body, inner)
		if x.Else != nil {
			w.stmt(x.Else, inner)
		}

	case *ast.ForStmt:
		if x.Init != nil {
			w.stmt(x.Init, guards)
		}
		if x.Cond != nil {
			w.scanExpr(x.Cond)
		}
		if x.Post != nil {
			w.stmt(x.Post, guards)
		}
		w.stmt(x.Body, guards)

	case *ast.RangeStmt:
		w.scanExpr(x.X)
		w.stmt(x.Body, guards)

	case *ast.SwitchStmt:
		if x.Init != nil {
			w.stmt(x.Init, guards)
		}
		if x.Tag != nil {
			w.scanExpr(x.Tag)
		}
		w.stmt(x.Body, guards)

	case *ast.TypeSwitchStmt:
		w.stmt(x.Body, guards)

	case *ast.SelectStmt:
		w.stmt(x.Body, guards)

	case *ast.CaseClause:
		for _, e := range x.List {
			w.scanExpr(e)
		}
		w.stmts(x.Body, guards)

	case *ast.CommClause:
		if x.Comm != nil {
			w.stmt(x.Comm, guards)
		}
		w.stmts(x.Body, guards)

	case *ast.ReturnStmt:
		for _, e := range x.Results {
			// Returning the handle hands ownership to the caller.
			if tr := w.tracked(e); tr != nil {
				tr.escaped = true
				continue
			}
			w.scanExpr(e)
		}
		if w.inClosure || w.reportable == nil {
			return
		}
		for _, tr := range w.tracks {
			if tr.released || tr.escaped || !w.reportable[tr.pos] {
				continue
			}
			if guards[tr.name] || (tr.errName != "" && guards[tr.errName]) {
				continue
			}
			w.pass.Reportf(x.Pos(), w.Return, tr.what)
		}

	case *ast.DeferStmt:
		w.scanExpr(x.Call)

	case *ast.ExprStmt:
		if call, ok := x.X.(*ast.CallExpr); ok {
			w.discarded(call)
		}
		w.scanExpr(x.X)

	case *ast.GoStmt:
		w.scanExpr(x.Call)

	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.scanExpr(v)
					}
				}
			}
		}

	case *ast.LabeledStmt:
		w.stmt(x.Stmt, guards)

	case *ast.SendStmt:
		w.scanExpr(x.Chan)
		w.scanExpr(x.Value)

	case *ast.IncDecStmt:
		w.scanExpr(x.X)
	}
}

// start recognises `g, err := h.GroupCreate(...)` — a direct start, or a
// call resolving only to helpers whose summary says they return a handle
// they started — and begins its track. Starts inside a nested closure
// belong to that closure's own checkBody; there the statement is only
// scanned for uses of our tracks.
func (w *walker) start(x *ast.AssignStmt) bool {
	if w.inClosure || len(x.Rhs) != 1 {
		return false
	}
	call, ok := x.Rhs[0].(*ast.CallExpr)
	if !ok {
		return false
	}
	what := w.pass.Prog.StartName(w.Handle, call, w.pass.Package())
	if what == "" {
		return false
	}
	id, ok := x.Lhs[0].(*ast.Ident)
	if !ok {
		return false
	}
	if id.Name == "_" {
		w.discarded(call)
		return false
	}
	tr := &track{name: id.Name, pos: x, what: what}
	if len(x.Lhs) > 1 {
		if eid, ok := x.Lhs[1].(*ast.Ident); ok {
			tr.errName = eid.Name
		}
	}
	// Scan the call first: GroupRecreate(old, ...) consumes the old group.
	w.scanExpr(call)
	// Rebinding a live tracked name is treated as an escape of the old
	// value (we cannot follow both lifetimes).
	if old := w.lookup(tr.name); old != nil && !old.released {
		old.escaped = true
	}
	w.tracks = append(w.tracks, tr)
	return true
}

// discarded reports a start whose result nothing references.
func (w *walker) discarded(call *ast.CallExpr) {
	if w.Discarded == "" || w.inClosure || w.reportable == nil {
		return
	}
	if what := w.pass.Prog.StartName(w.Handle, call, w.pass.Package()); what != "" {
		w.pass.Reportf(call.Pos(), w.Discarded, what)
	}
}

// scanExpr applies the use/release/escape rules to an expression tree.
func (w *walker) scanExpr(e ast.Expr) {
	switch x := e.(type) {
	case nil:
		return

	case *ast.Ident:
		// A bare reference outside the whitelisted shapes below is an
		// escape: stored, compared, appended, passed along.
		if tr := w.lookup(x.Name); tr != nil {
			tr.escaped = true
		}

	case *ast.SelectorExpr:
		// g.Comm(), g.Rank(): a method or field access on the handle is
		// a plain use.
		if w.tracked(x.X) == nil {
			w.scanExpr(x.X)
		}

	case *ast.CallExpr:
		if sel, ok := x.Fun.(*ast.SelectorExpr); ok && w.Handle.ReleaseMethods[sel.Sel.Name] && len(x.Args) == 0 {
			if tr := w.tracked(sel.X); tr != nil {
				tr.released = true
				return
			}
		}
		w.scanExpr(x.Fun)
		name := CalleeName(x)
		switch {
		case w.Handle.ReleaseCalls[name]:
			for _, a := range x.Args {
				w.releaseMentions(a)
			}
			return
		case w.Handle.ReadCalls[name]:
			for _, a := range x.Args {
				if w.tracked(a) == nil {
					w.scanExpr(a)
				}
			}
			return
		}
		// A tracked handle passed to a resolvable helper is judged by the
		// helper's summary; passing it to an unknown callee escapes it
		// (trusted to be released elsewhere).
		prog, from := w.pass.Prog, w.pass.Package()
		for ai, a := range x.Args {
			tr := w.tracked(a)
			switch {
			case tr == nil:
				w.scanExpr(a)
			case prog.ReleasesArg(w.Handle, name, len(x.Args), ai, from):
				tr.released = true
			case name == "" || prog.EscapesArg(name, len(x.Args), ai, from):
				tr.escaped = true
			}
			// Otherwise a known helper only reads the handle: a plain
			// use, the obligation stays here.
		}

	case *ast.FuncLit:
		// The closure may release or leak captured handles; walk it with
		// the same tracks but without treating its returns as ours.
		saved := w.inClosure
		w.inClosure = true
		w.stmts(x.Body.List, nil)
		w.inClosure = saved

	case *ast.ParenExpr:
		w.scanExpr(x.X)
	case *ast.StarExpr:
		w.scanExpr(x.X)
	case *ast.UnaryExpr:
		w.scanExpr(x.X)
	case *ast.BinaryExpr:
		w.scanExpr(x.X)
		w.scanExpr(x.Y)
	case *ast.IndexExpr:
		w.scanExpr(x.X)
		w.scanExpr(x.Index)
	case *ast.SliceExpr:
		w.scanExpr(x.X)
		w.scanExpr(x.Low)
		w.scanExpr(x.High)
		w.scanExpr(x.Max)
	case *ast.TypeAssertExpr:
		w.scanExpr(x.X)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			w.scanExpr(el)
		}
	case *ast.KeyValueExpr:
		w.scanExpr(x.Value)
	}
}

// releaseMentions marks a tracked identifier passed to a release call as
// released, reaching through parens: GroupFree(g), GroupRecreate(old, ...).
func (w *walker) releaseMentions(e ast.Expr) {
	switch x := e.(type) {
	case *ast.Ident:
		if tr := w.lookup(x.Name); tr != nil {
			tr.released = true
			return
		}
	case *ast.ParenExpr:
		w.releaseMentions(x.X)
		return
	}
	w.scanExpr(e)
}

// withGuards returns base extended with every identifier the branch
// condition mentions.
func withGuards(base map[string]bool, cond ast.Expr) map[string]bool {
	out := make(map[string]bool, len(base))
	for k := range base {
		out[k] = true
	}
	ast.Inspect(cond, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			out[id.Name] = true
		}
		return true
	})
	return out
}
