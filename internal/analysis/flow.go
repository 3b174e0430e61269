package analysis

// The dataflow layer: a cross-package view of the loaded source with
// per-function summaries, built once per Run and exposed to analyzers
// through Pass.Prog. The framework is parse-only (no type checking), so
// resolution is name-based — a call `helper(g)` resolves to every known
// function named helper with a compatible arity, preferring candidates in
// the caller's own package — and summaries merge conservatively across
// candidates. That is enough to track HMPI group and runtime handles
// across helper-function boundaries (groupfree, runtimeclose).

import (
	"go/ast"
	"reflect"
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
	// Summary is computed by buildSummaries.
	Summary
}

// Summary is what callers may assume about a function without reading
// its body.
type Summary struct {
	// Releases[k][i] is true when the i-th parameter is released as a
	// handle of kind k on some path: passed to one of the kind's release
	// calls, the receiver of one of its release methods, or handed to a
	// callee that releases it.
	Releases [numHandles][]bool
	// EscapesParam[i] is true when the i-th parameter is stored,
	// returned, captured, or passed to an unknown callee — ownership may
	// transfer, so callers must not report the handle as leaked.
	EscapesParam []bool
	// Returns[k] is true when the function returns a handle of kind k it
	// started itself (directly or through a callee that returns one): the
	// caller inherits the obligation to release it.
	Returns [numHandles]bool
}

// newSummary is the summary of a function of np parameters that does
// nothing: where the fixpoint starts, and where each round's recount does.
func newSummary(np int) Summary {
	s := Summary{EscapesParam: make([]bool, np)}
	for k := range s.Releases {
		s.Releases[k] = make([]bool, np)
	}
	return s
}

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
				fn.Summary = newSummary(len(paramNames(fd)))
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

// Handle describes one kind of paired obligation of the programming
// model — HMPI_Group_create … HMPI_Group_free, HMPI_Init … HMPI_Finalize
// — as the call names that start a lifetime, release it, or merely read
// it. The summaries below are indexed by kind and Lifetime walks one kind
// per analyzer; the two instances are the whole vocabulary. Request
// completion (Isend/Irecv … Wait) has none: hmpiverify's requests check
// reads it from the run.
type Handle struct {
	kind int
	// Qualifier, when set, is the package identifier a start must be
	// spelled with (hmpi.New): the bare name is too common to claim.
	Qualifier string
	// Starts are the methods whose first result is a handle the caller
	// must release.
	Starts map[string]bool
	// ReleaseCalls release every handle passed to them as an argument.
	ReleaseCalls map[string]bool
	// ReleaseMethods are the argument-less methods that release their
	// receiver.
	ReleaseMethods map[string]bool
	// ReadCalls take a handle as an argument without taking ownership.
	ReadCalls map[string]bool
}

const (
	groupKind = iota
	runtimeKind
	numHandles
)

var (
	// GroupHandle: GroupRecreate(old, ...) is both a start and a release —
	// the runtime dissolves the old group as part of building its
	// successor. Membership tests read the handle without taking it.
	GroupHandle = &Handle{
		kind:         groupKind,
		Starts:       set("GroupCreate", "GroupCreateChild", "GroupRecreate"),
		ReleaseCalls: set("GroupFree", "GroupRecreate"),
		ReadCalls:    set("IsMember"),
	}
	// RuntimeHandle: the per-job runtime, hmpi.New … rt.Finalize().
	RuntimeHandle = &Handle{
		kind:           runtimeKind,
		Qualifier:      "hmpi",
		Starts:         set("New"),
		ReleaseMethods: set("Finalize"),
	}

	handles = [numHandles]*Handle{GroupHandle, RuntimeHandle}
)

func set(names ...string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

// startName returns how findings name the call when it starts a lifetime
// of this kind directly ("GroupCreate", "hmpi.New"), or "".
func (h *Handle) startName(call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !h.Starts[sel.Sel.Name] {
		return ""
	}
	if h.Qualifier == "" {
		return sel.Sel.Name
	}
	if id, ok := sel.X.(*ast.Ident); ok && id.Name == h.Qualifier {
		return h.Qualifier + "." + sel.Sel.Name
	}
	return ""
}

// CollectiveOps are the communicator operations that every member of a
// communicator must call in the same order. The runtime reports the
// deadlock a mismatched order causes, and hmpiverify's collseq check
// compares the members' sequences.
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
}

// PointToPointOps are the communicator operations between two ranks.
var PointToPointOps = map[string]bool{
	"Send": true, "Isend": true, "IsendOwned": true,
	"Recv": true, "Irecv": true, "Sendrecv": true,
	"Probe": true, "Iprobe": true,
}

// IsCommOp reports whether name is an operation that needs its peers
// alive and participating: point-to-point, or a collective other than the
// failure-tolerant agreements. reconpure and ftcontract ban these in the
// places they guard; this is the one list both analyzers read.
func IsCommOp(name string) bool {
	return PointToPointOps[name] || CollectiveOps[name] && name != "AgreeFailed" && name != "AgreeVote"
}

// StartName returns how findings name the call when it starts a lifetime
// of kind h — directly, or by resolving only to helpers that return a
// handle they started, so the caller inherits the obligation — or "".
func (p *Program) StartName(h *Handle, call *ast.CallExpr, from *Package) string {
	if what := h.startName(call); what != "" {
		return what
	}
	if name := CalleeName(call); p.CallReturns(h, name, len(call.Args), from) {
		return name
	}
	return ""
}

// all reports whether a call to the named function resolves to at least
// one candidate and ok holds for every one of them: summaries merge
// conservatively across name-based candidates.
func (p *Program) all(name string, nargs int, from *Package, ok func(*Func) bool) bool {
	cands := p.Resolve(name, nargs, from)
	for _, c := range cands {
		if !ok(c) {
			return false
		}
	}
	return len(cands) > 0
}

// CallReturns reports whether a call to the named function resolves only
// to functions returning a handle of kind h they started.
func (p *Program) CallReturns(h *Handle, name string, nargs int, from *Package) bool {
	return p.all(name, nargs, from, func(c *Func) bool { return c.Returns[h.kind] })
}

// ReleasesArg reports whether a call to the named function releases its
// ai-th argument as a handle of kind h in every resolvable candidate:
// `releaseGroup(g)` then counts like a direct GroupFree.
func (p *Program) ReleasesArg(h *Handle, name string, nargs, ai int, from *Package) bool {
	return p.all(name, nargs, from, func(c *Func) bool {
		return ai < len(c.Releases[h.kind]) && c.Releases[h.kind][ai]
	})
}

// EscapesArg reports whether a call to the named function may retain its
// ai-th argument (any candidate escapes it, or the callee is unknown).
func (p *Program) EscapesArg(name string, nargs, ai int, from *Package) bool {
	return !p.all(name, nargs, from, func(c *Func) bool {
		return ai < len(c.EscapesParam) && !c.EscapesParam[ai]
	})
}

// buildSummaries computes Releases/EscapesParam/Returns for every
// function, iterating to a fixpoint so wrapper chains (a helper that calls
// a helper that frees) converge.
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
	param := func(e ast.Expr) (int, bool) {
		id, ok := e.(*ast.Ident)
		if !ok {
			return 0, false
		}
		i, ok := idx[id.Name]
		return i, ok
	}
	next := newSummary(len(names))
	// owned holds, per local variable, the kinds of handle the function
	// started and bound to it (directly or via callees that return one).
	owned := make(map[string][numHandles]bool)
	// starts ORs into kinds the kinds of handle the call starts.
	starts := func(call *ast.CallExpr, kinds [numHandles]bool) [numHandles]bool {
		for k, h := range handles {
			kinds[k] = kinds[k] || p.StartName(h, call, fn.Pkg) != ""
		}
		return kinds
	}

	var scan func(n ast.Node) bool
	scan = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			// `g, err := h.GroupCreate(...)` or `g := mk(...)` where mk
			// returns a handle it started.
			if len(x.Rhs) == 1 {
				call, isCall := x.Rhs[0].(*ast.CallExpr)
				if id, ok := x.Lhs[0].(*ast.Ident); ok && isCall && id.Name != "_" {
					owned[id.Name] = starts(call, owned[id.Name])
				}
			}

		case *ast.ReturnStmt:
			for _, e := range x.Results {
				switch e := e.(type) {
				case *ast.Ident:
					for k, own := range owned[e.Name] {
						next.Returns[k] = next.Returns[k] || own
					}
				case *ast.CallExpr:
					next.Returns = starts(e, next.Returns)
				}
			}

		case *ast.CallExpr:
			name := CalleeName(x)
			// Classify each argument ourselves and stop the generic walk
			// (return false below): a parameter passed to a call is
			// judged by the callee's summary, not by the blanket
			// bare-mention-escapes rule.
			descend := func(e ast.Expr) {
				if e == nil {
					return
				}
				if _, isParam := param(e); !isParam {
					ast.Inspect(e, scan)
				}
			}
			switch fun := x.Fun.(type) {
			case *ast.Ident:
				// plain function name, not a value use
			case *ast.SelectorExpr:
				// param.Method(...): a method call on the parameter is a
				// read, not an escape of the receiver — and a release when
				// the method is one of a kind's release methods.
				if i, ok := param(fun.X); ok && len(x.Args) == 0 {
					for k, h := range handles {
						if h.ReleaseMethods[fun.Sel.Name] {
							next.Releases[k][i] = true
						}
					}
				}
				descend(fun.X)
			default:
				descend(x.Fun)
			}
			for k, h := range handles {
				release := h.ReleaseCalls[name]
				if !release && !h.ReadCalls[name] {
					continue
				}
				for _, a := range x.Args {
					if i, ok := param(a); ok && release {
						next.Releases[k][i] = true
					} else {
						descend(a)
					}
				}
				return false
			}
			cands := p.Resolve(name, len(x.Args), fn.Pkg)
			for ai, a := range x.Args {
				i, isParam := param(a)
				if !isParam {
					descend(a)
					continue
				}
				if len(cands) == 0 {
					// Unknown callee: the parameter escapes.
					next.EscapesParam[i] = true
					continue
				}
				for _, c := range cands {
					for k := range handles {
						if ai < len(c.Releases[k]) && c.Releases[k][ai] {
							next.Releases[k][i] = true
						}
					}
					if ai >= len(c.EscapesParam) || c.EscapesParam[ai] {
						next.EscapesParam[i] = true
					}
				}
			}
			return false

		case *ast.SelectorExpr:
			// param.Method() / param.field reads do not escape the
			// parameter; do not descend into the base identifier.
			if _, isParam := param(x.X); isParam {
				return false
			}

		case *ast.Ident:
			// A bare mention outside the classified shapes above:
			// stored, returned, compared, appended — treat as escape.
			if i, ok := idx[x.Name]; ok {
				next.EscapesParam[i] = true
			}
		}
		return true
	}
	ast.Inspect(fn.Decl.Body, scan)

	changed := !reflect.DeepEqual(next, fn.Summary)
	fn.Summary = next
	return changed
}
