package analysis

// The dataflow layer: a cross-package view of the loaded source with
// per-function summaries, built once per Run and exposed to analyzers
// through Pass.Prog. The framework is parse-only (no type checking), so
// resolution is name-based — a call `helper(g)` resolves to every known
// function named helper with a compatible arity, preferring candidates in
// the caller's own package — and summaries merge conservatively across
// candidates. That is enough to track HMPI Group/Comm handles across
// helper-function boundaries (the flow-sensitive groupfree upgrade), to
// know which functions perform collectives (collmatch), and to answer
// def-use taint queries (rank-dependence) within one function body.

import (
	"go/ast"
)

// Program is the cross-package view: every function of every loaded
// package, indexed by name, with interprocedural summaries computed to a
// fixpoint.
type Program struct {
	Pkgs []*Package
	// funcs maps a bare function or method name to its candidate
	// declarations across all packages.
	funcs map[string][]*Func
}

// Func is one function or method declaration together with its summary.
type Func struct {
	Pkg  *Package
	Decl *ast.FuncDecl
	// Name is the bare declared name (methods are indexed by method
	// name; the receiver type is not consulted — parse-only analysis has
	// no reliable type identity).
	Name string

	// summary bits, computed by buildSummaries:

	// FreesParam[i] is true when the i-th parameter is passed to
	// GroupFree (directly or through a callee that frees it) on some
	// path.
	FreesParam []bool
	// EscapesParam[i] is true when the i-th parameter is stored,
	// returned, captured, or passed to an unknown callee — ownership may
	// transfer, so callers must not report the handle as leaked.
	EscapesParam []bool
	// WaitsParam[i] is true when the i-th parameter is completed as a
	// nonblocking request — Wait or Test is called on it, or it is passed
	// to WaitAll/WaitAny or to a callee that completes it — on some path.
	WaitsParam []bool
	// ReturnsOwned is true when the function returns a group handle it
	// created itself (directly via a create method or through a callee
	// that returns an owned handle): the caller inherits the obligation
	// to free it.
	ReturnsOwned bool
	// ReturnsRequest is true when the function returns a nonblocking
	// request it started itself (directly via Isend/Irecv/Ibcast/... or
	// through a callee that returns one): the caller inherits the
	// obligation to complete it.
	ReturnsRequest bool
	// CollOps is the set of collective operation names the function
	// performs, directly or through known callees (transitively).
	CollOps map[string]bool
}

// NumParams returns the number of named parameters (the summary index
// space).
func (f *Func) NumParams() int { return len(f.FreesParam) }

// paramNames flattens the declared parameter names in order. Unnamed and
// blank parameters occupy their index with "".
func paramNames(decl *ast.FuncDecl) []string {
	var out []string
	if decl.Type.Params == nil {
		return out
	}
	for _, field := range decl.Type.Params.List {
		if len(field.Names) == 0 {
			out = append(out, "")
			continue
		}
		for _, n := range field.Names {
			out = append(out, n.Name)
		}
	}
	return out
}

// BuildProgram indexes the packages and computes function summaries to a
// fixpoint. Run calls it automatically; tests may call it directly.
func BuildProgram(pkgs []*Package) *Program {
	prog := &Program{Pkgs: pkgs, funcs: make(map[string][]*Func)}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn := &Func{Pkg: pkg, Decl: fd, Name: fd.Name.Name}
				np := len(paramNames(fd))
				fn.FreesParam = make([]bool, np)
				fn.EscapesParam = make([]bool, np)
				fn.WaitsParam = make([]bool, np)
				fn.CollOps = make(map[string]bool)
				prog.funcs[fn.Name] = append(prog.funcs[fn.Name], fn)
			}
		}
	}
	prog.buildSummaries()
	return prog
}

// Resolve returns the candidate declarations a call with the given bare
// name and argument count may reach. Candidates in from's package are
// preferred: when any exist, only they are returned. nargs < 0 disables
// arity filtering.
func (p *Program) Resolve(name string, nargs int, from *Package) []*Func {
	if p == nil {
		return nil
	}
	cands := p.funcs[name]
	if len(cands) == 0 {
		return nil
	}
	var local, global []*Func
	for _, f := range cands {
		if nargs >= 0 && !arityCompatible(f.Decl, nargs) {
			continue
		}
		if from != nil && f.Pkg == from {
			local = append(local, f)
		} else {
			global = append(global, f)
		}
	}
	if len(local) > 0 {
		return local
	}
	return global
}

// arityCompatible reports whether a call with nargs arguments could reach
// the declaration (exact match, or at least the fixed arguments of a
// variadic signature).
func arityCompatible(decl *ast.FuncDecl, nargs int) bool {
	params := decl.Type.Params
	if params == nil {
		return nargs == 0
	}
	n := 0
	variadic := false
	for _, field := range params.List {
		k := len(field.Names)
		if k == 0 {
			k = 1
		}
		n += k
		if _, ok := field.Type.(*ast.Ellipsis); ok {
			variadic = true
		}
	}
	if variadic {
		return nargs >= n-1
	}
	return nargs == n
}

// CalleeName extracts the bare callee name of a call expression: `f(x)`
// yields "f", `pkg.F(x)` and `recv.M(x)` yield the selector name. Calls
// through computed expressions yield "".
func CalleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// createMethods are the HMPI group-creating operations whose results are
// owned handles. Shared by the summaries below and the groupfree
// analyzer.
var createMethods = map[string]bool{
	"GroupCreate":                 true,
	"GroupCreateChild":            true,
	"GroupCreateWithOptions":      true,
	"GroupCreateChildWithOptions": true,
	"GroupRecreate":               true,
}

// CollectiveOps are the communicator operations that every member of a
// communicator must call in the same order: a rank-dependent subset of
// members entering one is a cross-rank consistency hazard (collmatch).
var CollectiveOps = map[string]bool{
	"Barrier":       true,
	"Bcast":         true,
	"Reduce":        true,
	"Allreduce":     true,
	"Gather":        true,
	"Scatter":       true,
	"Allgather":     true,
	"Alltoall":      true,
	"ReduceScatter": true,
	"Scan":          true,
	"Exscan":        true,
	"AgreeFailed":   true,
	"AgreeVote":     true,
	"Ibcast":        true,
	"Iallreduce":    true,
}

// PointToPointOps are the communicator operations between two ranks.
var PointToPointOps = map[string]bool{
	"Send": true, "SendOwned": true, "Isend": true, "IsendOwned": true,
	"Recv": true, "Irecv": true, "Sendrecv": true,
	"Probe": true, "Iprobe": true,
}

// IsCommOp reports whether name is an operation that needs its peers
// alive and participating: point-to-point, or a collective other than the
// failure-tolerant agreements. reconpure and ftcontract ban these in the
// places they guard; this is the one list all three analyzers read.
func IsCommOp(name string) bool {
	return PointToPointOps[name] || CollectiveOps[name] && name != "AgreeFailed" && name != "AgreeVote"
}

// requestMethods are the nonblocking operations whose results are pending
// requests the caller must complete with Wait/Test/WaitAll/WaitAny.
// Shared by the summaries below and the reqwait analyzer.
var requestMethods = map[string]bool{
	"Isend":      true,
	"IsendOwned": true,
	"Irecv":      true,
	"Ibcast":     true,
	"Iallreduce": true,
}

// completeFuncs are the package-level functions that complete every
// request (or slice of requests) passed to them.
var completeFuncs = map[string]bool{
	"WaitAll": true,
	"WaitAny": true,
}

// completeMethods are the request methods that complete their receiver.
var completeMethods = map[string]bool{
	"Wait": true,
	"Test": true,
}

// IsCreateCall reports whether the call creates an owned group handle
// directly (h.GroupCreate and friends).
func IsCreateCall(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && createMethods[sel.Sel.Name]
}

// IsRequestCall reports whether the call starts a nonblocking operation
// directly (comm.Isend and friends).
func IsRequestCall(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && requestMethods[sel.Sel.Name]
}

// IsCreateName reports whether name is one of the group-creating methods.
func IsCreateName(name string) bool { return createMethods[name] }

// IsRequestName reports whether name is one of the nonblocking operations
// returning a pending request.
func IsRequestName(name string) bool { return requestMethods[name] }

// IsCompleteFunc reports whether name is a package-level function that
// completes every request passed to it (WaitAll, WaitAny).
func IsCompleteFunc(name string) bool { return completeFuncs[name] }

// IsCompleteMethod reports whether name is a request method that
// completes its receiver (Wait, Test).
func IsCompleteMethod(name string) bool { return completeMethods[name] }

// CallReturnsOwned reports whether a call to the named function with the
// given argument count resolves only to functions returning an owned
// group handle: the caller inherits the obligation to free the result.
func (p *Program) CallReturnsOwned(name string, nargs int, from *Package) bool {
	if p == nil || name == "" {
		return false
	}
	cands := p.Resolve(name, nargs, from)
	if len(cands) == 0 {
		return false
	}
	for _, c := range cands {
		if !c.ReturnsOwned {
			return false
		}
	}
	return true
}

// CallReturnsRequest reports whether a call to the named function with
// the given argument count resolves only to functions returning a pending
// request: the caller inherits the obligation to complete it.
func (p *Program) CallReturnsRequest(name string, nargs int, from *Package) bool {
	if p == nil || name == "" {
		return false
	}
	cands := p.Resolve(name, nargs, from)
	if len(cands) == 0 {
		return false
	}
	for _, c := range cands {
		if !c.ReturnsRequest {
			return false
		}
	}
	return true
}

// buildSummaries computes FreesParam/EscapesParam/ReturnsOwned/CollOps
// for every function, iterating to a fixpoint so wrapper chains (a helper
// that calls a helper that frees) converge.
func (p *Program) buildSummaries() {
	changed := true
	for round := 0; changed && round < 16; round++ {
		changed = false
		for _, cands := range p.funcs {
			for _, fn := range cands {
				if p.summarize(fn) {
					changed = true
				}
			}
		}
	}
}

// summarize recomputes fn's summary bits from its body and the current
// summaries of its callees, reporting whether anything changed.
func (p *Program) summarize(fn *Func) bool {
	names := paramNames(fn.Decl)
	idx := make(map[string]int, len(names))
	for i, n := range names {
		if n != "" && n != "_" {
			idx[n] = i
		}
	}
	frees := make([]bool, len(names))
	escapes := make([]bool, len(names))
	waits := make([]bool, len(names))
	colls := make(map[string]bool)
	returnsOwned := false
	returnsRequest := false

	// owned tracks local variables holding handles the function created
	// (directly or via owned-returning callees); ownedReq does the same
	// for started nonblocking requests.
	owned := make(map[string]bool)
	ownedReq := make(map[string]bool)

	var scan func(n ast.Node) bool
	scan = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			// `g, err := h.GroupCreate(...)` or `g := mk(...)` where mk
			// returns an owned handle.
			if len(x.Rhs) == 1 {
				if call, ok := x.Rhs[0].(*ast.CallExpr); ok {
					if IsCreateCall(call) || p.returnsOwnedCall(call, fn.Pkg) {
						if id, ok := x.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
							owned[id.Name] = true
						}
					}
					if IsRequestCall(call) || p.returnsRequestCall(call, fn.Pkg) {
						if id, ok := x.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
							ownedReq[id.Name] = true
						}
					}
				}
			}

		case *ast.ReturnStmt:
			for _, e := range x.Results {
				if id, ok := e.(*ast.Ident); ok {
					if owned[id.Name] {
						returnsOwned = true
					}
					if ownedReq[id.Name] {
						returnsRequest = true
					}
					if i, ok := idx[id.Name]; ok {
						escapes[i] = true
					}
					continue
				}
				if call, ok := e.(*ast.CallExpr); ok {
					if IsCreateCall(call) || p.returnsOwnedCall(call, fn.Pkg) {
						returnsOwned = true
					}
					if IsRequestCall(call) || p.returnsRequestCall(call, fn.Pkg) {
						returnsRequest = true
					}
				}
			}

		case *ast.CallExpr:
			name := CalleeName(x)
			if CollectiveOps[name] {
				colls[name] = true
			}
			// Classify each argument ourselves and stop the generic walk
			// (return false below): a parameter passed to a call is
			// judged by the callee's summary, not by the blanket
			// bare-mention-escapes rule.
			descend := func(e ast.Expr) {
				if e == nil {
					return
				}
				if id, ok := e.(*ast.Ident); ok {
					if _, isParam := idx[id.Name]; isParam {
						return // classified by the caller below
					}
				}
				ast.Inspect(e, scan)
			}
			switch fun := x.Fun.(type) {
			case *ast.Ident:
				// plain function name, not a value use
			case *ast.SelectorExpr:
				// param.Method(...): a method call on the parameter is a
				// read, not an escape of the receiver. A Wait/Test on a
				// parameter additionally completes it as a request.
				if id, ok := fun.X.(*ast.Ident); ok && completeMethods[fun.Sel.Name] && len(x.Args) == 0 {
					if i, ok := idx[id.Name]; ok {
						waits[i] = true
					}
				}
				descend(fun.X)
			default:
				descend(x.Fun)
			}
			switch name {
			case "GroupFree":
				for _, a := range x.Args {
					if id, ok := a.(*ast.Ident); ok {
						if i, ok := idx[id.Name]; ok {
							frees[i] = true
							continue
						}
					}
					descend(a)
				}
				return false
			case "IsMember":
				for _, a := range x.Args {
					descend(a)
				}
				return false
			case "WaitAll", "WaitAny":
				for _, a := range x.Args {
					if id, ok := a.(*ast.Ident); ok {
						if i, ok := idx[id.Name]; ok {
							waits[i] = true
							continue
						}
					}
					descend(a)
				}
				return false
			}
			cands := p.Resolve(name, len(x.Args), fn.Pkg)
			for _, c := range cands {
				for op := range c.CollOps {
					colls[op] = true
				}
			}
			for ai, a := range x.Args {
				id, ok := a.(*ast.Ident)
				if !ok {
					descend(a)
					continue
				}
				i, isParam := idx[id.Name]
				if !isParam {
					descend(a)
					continue
				}
				if len(cands) == 0 {
					// Unknown callee: the parameter escapes.
					escapes[i] = true
					continue
				}
				for _, c := range cands {
					if ai < len(c.FreesParam) && c.FreesParam[ai] {
						frees[i] = true
					}
					if ai < len(c.WaitsParam) && c.WaitsParam[ai] {
						waits[i] = true
					}
					if ai >= len(c.EscapesParam) || c.EscapesParam[ai] {
						escapes[i] = true
					}
				}
			}
			return false

		case *ast.SelectorExpr:
			// param.Method() / param.field reads do not escape the
			// parameter; do not descend into the base identifier.
			if id, ok := x.X.(*ast.Ident); ok {
				if _, isParam := idx[id.Name]; isParam {
					return false
				}
			}

		case *ast.Ident:
			// A bare mention outside the classified shapes above:
			// stored, compared, appended — treat as escape.
			if i, ok := idx[x.Name]; ok {
				escapes[i] = true
			}
		}
		return true
	}
	ast.Inspect(fn.Decl.Body, scan)

	changed := returnsOwned != fn.ReturnsOwned || returnsRequest != fn.ReturnsRequest ||
		len(colls) != len(fn.CollOps)
	for i := range frees {
		if frees[i] != fn.FreesParam[i] || escapes[i] != fn.EscapesParam[i] || waits[i] != fn.WaitsParam[i] {
			changed = true
		}
	}
	if !changed {
		for op := range colls {
			if !fn.CollOps[op] {
				changed = true
				break
			}
		}
	}
	fn.FreesParam = frees
	fn.EscapesParam = escapes
	fn.WaitsParam = waits
	fn.ReturnsOwned = returnsOwned
	fn.ReturnsRequest = returnsRequest
	fn.CollOps = colls
	return changed
}

// returnsOwnedCall reports whether a call resolves only to functions that
// return an owned handle (all candidates agree, so the caller reliably
// inherits the obligation).
func (p *Program) returnsOwnedCall(call *ast.CallExpr, from *Package) bool {
	return p.CallReturnsOwned(CalleeName(call), len(call.Args), from)
}

// returnsRequestCall reports whether a call resolves only to functions
// that return a pending request.
func (p *Program) returnsRequestCall(call *ast.CallExpr, from *Package) bool {
	return p.CallReturnsRequest(CalleeName(call), len(call.Args), from)
}

// FreesArg reports whether a call to the named function with the given
// argument count frees its ai-th argument in every resolvable candidate.
// Analyzers use it to treat `releaseGroup(g)` like a direct GroupFree.
func (p *Program) FreesArg(name string, nargs, ai int, from *Package) bool {
	cands := p.Resolve(name, nargs, from)
	if len(cands) == 0 {
		return false
	}
	for _, c := range cands {
		if ai >= len(c.FreesParam) || !c.FreesParam[ai] {
			return false
		}
	}
	return true
}

// WaitsArg reports whether a call to the named function with the given
// argument count completes its ai-th argument as a request in every
// resolvable candidate. Analyzers use it to treat `finish(r)` like a
// direct Wait.
func (p *Program) WaitsArg(name string, nargs, ai int, from *Package) bool {
	cands := p.Resolve(name, nargs, from)
	if len(cands) == 0 {
		return false
	}
	for _, c := range cands {
		if ai >= len(c.WaitsParam) || !c.WaitsParam[ai] {
			return false
		}
	}
	return true
}

// EscapesArg reports whether a call to the named function may retain its
// ai-th argument (any candidate escapes it, or the callee is unknown).
func (p *Program) EscapesArg(name string, nargs, ai int, from *Package) bool {
	cands := p.Resolve(name, nargs, from)
	if len(cands) == 0 {
		return true
	}
	for _, c := range cands {
		if ai >= len(c.EscapesParam) || c.EscapesParam[ai] {
			return true
		}
	}
	return false
}

// PerformsCollective returns the collective operations a call to the
// named function may perform (transitively), or nil when none resolve.
func (p *Program) PerformsCollective(name string, nargs int, from *Package) map[string]bool {
	if CollectiveOps[name] {
		return map[string]bool{name: true}
	}
	cands := p.Resolve(name, nargs, from)
	if len(cands) == 0 {
		return nil
	}
	out := make(map[string]bool)
	for _, c := range cands {
		for op := range c.CollOps {
			out[op] = true
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// ---------------------------------------------------------------------
// Def-use chains: per-function taint queries.

// DefUse answers taint queries over one function body: an identifier is
// tainted when any of its reaching definitions (flow-insensitively, any
// assignment in the body) contains a source expression, directly or
// through other tainted identifiers.
type DefUse struct {
	// deps maps each assigned identifier to the identifiers and calls
	// appearing in its defining expressions.
	deps map[string][]ast.Expr
}

// NewDefUse builds the def-use index for one function body.
func NewDefUse(body *ast.BlockStmt) *DefUse {
	du := &DefUse{deps: make(map[string][]ast.Expr)}
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			// Pair lhs with rhs; a multi-assign from one call taints
			// every target with the whole call.
			for i, lhs := range x.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				if len(x.Rhs) == len(x.Lhs) {
					du.deps[id.Name] = append(du.deps[id.Name], x.Rhs[i])
				} else if len(x.Rhs) > 0 {
					du.deps[id.Name] = append(du.deps[id.Name], x.Rhs[0])
				}
			}
		case *ast.ValueSpec:
			for i, name := range x.Names {
				if name.Name == "_" {
					continue
				}
				if i < len(x.Values) {
					du.deps[name.Name] = append(du.deps[name.Name], x.Values[i])
				}
			}
		}
		return true
	})
	return du
}

// Tainted reports whether the expression transitively contains a source:
// either isSource(sub-expression) holds directly, or an identifier in the
// expression has a tainted definition.
func (du *DefUse) Tainted(e ast.Expr, isSource func(ast.Expr) bool) bool {
	return du.tainted(e, isSource, make(map[string]bool))
}

func (du *DefUse) tainted(e ast.Expr, isSource func(ast.Expr) bool, seen map[string]bool) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if ex, ok := n.(ast.Expr); ok && isSource(ex) {
			found = true
			return false
		}
		// A call that is not itself a source launders taint: its result
		// is the callee's, not a function of whichever arguments happen
		// to be tainted. Without this cut, one `f(x, rank)` call makes
		// every downstream value rank-dependent.
		if _, ok := n.(*ast.CallExpr); ok {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && !seen[id.Name] {
			seen[id.Name] = true
			for _, def := range du.deps[id.Name] {
				if du.tainted(def, isSource, seen) {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

// RankSource reports whether the expression is a direct rank query — a
// call to a method named Rank. Conditions tainted by it differ across the
// processes of an SPMD program.
func RankSource(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Rank" && len(call.Args) == 0
}
