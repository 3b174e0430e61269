package pmdl

// Static lints for performance models, beyond the hard semantic rules of
// Check. The paper's toolchain compiles a model ahead of time so the
// runtime can reason about the algorithm before running it (HMPI_Timeof,
// HMPI_Group_create); the lints extend that static reasoning from
// performance to correctness. This file holds the structural lints —
// rules decidable from the AST alone — plus the two hooks the
// communication-graph lints of package modelcheck are built on:
// AutoInstantiate (bind heuristic small actual parameters) and
// UnrollScheme (symbolically unroll the scheme into a series-parallel
// trace of computations and transfers).

import (
	"fmt"
	"sort"
)

// Severity classifies a lint diagnostic.
type Severity int

// Severities.
const (
	SevWarn Severity = iota
	SevError
)

func (s Severity) String() string {
	if s == SevError {
		return "error"
	}
	return "warning"
}

// Lint diagnostic codes. Each code has exactly one triggering rule,
// documented in DESIGN.md ("Static analysis").
const (
	// LintSelfComm: a communication action or link clause whose source
	// and destination are the same abstract processor.
	LintSelfComm = "selfcomm"
	// LintSeqCycle: consecutive transfers in a sequential scheme segment
	// form a cycle, which deadlocks under a rendezvous send-first
	// lowering.
	LintSeqCycle = "seqcycle"
	// LintUnusedCoord: a coordinate declared in coord but referenced
	// nowhere in node, link, parent or scheme.
	LintUnusedCoord = "unusedcoord"
	// LintLinkUnused: a pair with declared link volume that the scheme
	// never transfers between.
	LintLinkUnused = "linkunused"
	// LintNoLink: a scheme transfer between a pair with no declared link
	// volume.
	LintNoLink = "nolink"
	// LintConstIndex: a constant array subscript or coordinate target
	// that is negative or exceeds a constant declared bound.
	LintConstIndex = "constindex"
	// LintNoInstance: the model could not be instantiated for the
	// communication-graph lints (advisory; pass explicit arguments).
	LintNoInstance = "noinstance"
)

// Diag is one lint finding.
type Diag struct {
	Pos      Pos
	Code     string
	Severity Severity
	Message  string
}

func (d Diag) String() string {
	return fmt.Sprintf("%s: %s %s: %s", d.Pos, d.Severity, d.Code, d.Message)
}

// diagf appends a finding.
func diagf(diags []Diag, pos Pos, code string, sev Severity, format string, args ...any) []Diag {
	return append(diags, Diag{Pos: pos, Code: code, Severity: sev, Message: fmt.Sprintf(format, args...)})
}

// Lint runs the structural lints on a checked model file. The
// instantiation-dependent lints live in internal/analysis/modelcheck,
// which calls this first.
func Lint(m *Model) []Diag {
	var diags []Diag
	alg := m.File.Algorithm
	diags = append(diags, lintUnusedCoords(alg)...)
	diags = append(diags, lintStructuralSelfComm(alg)...)
	diags = append(diags, lintConstIndices(alg)...)
	SortDiags(diags)
	return diags
}

// SortDiags orders diagnostics by source position, then code.
func SortDiags(diags []Diag) {
	sort.SliceStable(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Col != b.Pos.Col {
			return a.Pos.Col < b.Pos.Col
		}
		return a.Code < b.Code
	})
}

// lintUnusedCoords reports coordinates never referenced outside their own
// declaration.
func lintUnusedCoords(alg *Algorithm) []Diag {
	used := make(map[string]bool)
	mark := func(e Expr) {
		walkExpr(e, func(x Expr) {
			if id, ok := x.(*Ident); ok {
				used[id.Name] = true
			}
		})
	}
	for _, cl := range alg.Nodes {
		mark(cl.Guard)
		mark(cl.Volume)
	}
	if alg.Link != nil {
		for _, lv := range alg.Link.Vars {
			mark(lv.Size)
		}
		for _, cl := range alg.Link.Clauses {
			mark(cl.Guard)
			mark(cl.Volume)
			for _, e := range cl.Src {
				mark(e)
			}
			for _, e := range cl.Dst {
				mark(e)
			}
		}
	}
	for _, e := range alg.Parent {
		mark(e)
	}
	walkStmt(alg.Scheme, func(s Stmt) {
		forEachStmtExpr(s, mark)
	})
	var diags []Diag
	for _, cv := range alg.Coords {
		if !used[cv.Name] {
			diags = diagf(diags, cv.Pos, LintUnusedCoord, SevWarn,
				"coordinate %s is declared but never used in node, link, parent or scheme", cv.Name)
		}
	}
	return diags
}

// lintStructuralSelfComm reports transfers whose source and destination
// coordinate lists are syntactically identical: [i]->[i] cannot describe a
// real communication, and the runtime silently drops the volume.
func lintStructuralSelfComm(alg *Algorithm) []Diag {
	var diags []Diag
	if alg.Link != nil {
		for _, cl := range alg.Link.Clauses {
			if exprListEqual(cl.Src, cl.Dst) {
				diags = diagf(diags, cl.Pos, LintSelfComm, SevError,
					"link clause transfers from a processor to itself; self transfers carry no cost and are dropped")
			}
		}
	}
	walkStmt(alg.Scheme, func(s Stmt) {
		a, ok := s.(*ActionStmt)
		if !ok || a.B == nil {
			return
		}
		if exprListEqual(a.A, a.B) {
			diags = diagf(diags, a.Pos, LintSelfComm, SevError,
				"communication action sends from a processor to itself")
		}
	})
	return diags
}

// lintConstIndices reports constant subscripts and coordinate targets that
// are provably out of range: negative anywhere, or >= a bound that is
// itself a literal (coordinate ranges like coord I=4, parameter dimensions
// like int v[3]).
func lintConstIndices(alg *Algorithm) []Diag {
	var diags []Diag
	params := make(map[string]Param, len(alg.Params))
	for _, p := range alg.Params {
		params[p.Name] = p
	}
	coordBound := func(i int) (int64, bool) {
		if i >= len(alg.Coords) {
			return 0, false
		}
		return constValue(alg.Coords[i].Size)
	}

	checkTargets := func(pos Pos, exprs []Expr) {
		for i, e := range exprs {
			c, ok := constValue(e)
			if !ok {
				continue
			}
			if c < 0 {
				diags = diagf(diags, pos, LintConstIndex, SevError,
					"coordinate target %d is negative", c)
				continue
			}
			if bound, ok := coordBound(i); ok && c >= bound {
				diags = diagf(diags, pos, LintConstIndex, SevError,
					"coordinate target %d is out of range [0,%d)", c, bound)
			}
		}
	}
	checkIndexChain := func(e Expr) {
		// Unwind x[i][j]... into base identifier plus subscripts in
		// declaration order.
		var subs []Expr
		base := e
		for {
			ix, ok := base.(*IndexExpr)
			if !ok {
				break
			}
			subs = append([]Expr{ix.Idx}, subs...)
			base = ix.X
		}
		id, ok := base.(*Ident)
		if !ok {
			return
		}
		prm, ok := params[id.Name]
		if !ok {
			return
		}
		for i, sub := range subs {
			c, ok := constValue(sub)
			if !ok || i >= len(prm.Dims) {
				continue
			}
			if c < 0 {
				diags = diagf(diags, exprPos(sub), LintConstIndex, SevError,
					"index %d of %s is negative", c, id.Name)
				continue
			}
			if bound, ok := constValue(prm.Dims[i]); ok && c >= bound {
				diags = diagf(diags, exprPos(sub), LintConstIndex, SevError,
					"index %d of %s is out of range [0,%d)", c, id.Name, bound)
			}
		}
	}
	checkExpr := func(e Expr) {
		walkExpr(e, func(x Expr) {
			if _, ok := x.(*IndexExpr); ok {
				checkIndexChain(x)
			}
		})
	}

	for _, cl := range alg.Nodes {
		checkExpr(cl.Guard)
		checkExpr(cl.Volume)
	}
	if alg.Link != nil {
		for _, cl := range alg.Link.Clauses {
			checkExpr(cl.Guard)
			checkExpr(cl.Volume)
			checkTargets(cl.Pos, cl.Src)
			checkTargets(cl.Pos, cl.Dst)
		}
	}
	if alg.Parent != nil {
		checkTargets(alg.Pos, alg.Parent)
	}
	walkStmt(alg.Scheme, func(s Stmt) {
		switch x := s.(type) {
		case *ActionStmt:
			checkExpr(x.Percent)
			checkTargets(x.Pos, x.A)
			if x.B != nil {
				checkTargets(x.Pos, x.B)
			}
		default:
			forEachStmtExpr(s, checkExpr)
		}
	})
	return diags
}

// constValue evaluates literal-only integer expressions: IntLit, unary
// minus, and binary arithmetic over them.
func constValue(e Expr) (int64, bool) {
	switch x := e.(type) {
	case *IntLit:
		return x.Value, true
	case *UnaryExpr:
		if x.Op == TokMinus {
			v, ok := constValue(x.X)
			return -v, ok
		}
	case *BinaryExpr:
		a, ok1 := constValue(x.X)
		b, ok2 := constValue(x.Y)
		if !ok1 || !ok2 {
			return 0, false
		}
		switch x.Op {
		case TokPlus:
			return a + b, true
		case TokMinus:
			return a - b, true
		case TokStar:
			return a * b, true
		case TokSlash:
			if b != 0 {
				return a / b, true
			}
		case TokPercent:
			if b != 0 {
				return a % b, true
			}
		}
	}
	return 0, false
}

// --- AST walking helpers -------------------------------------------------

// walkExpr calls fn on e and every sub-expression.
func walkExpr(e Expr, fn func(Expr)) {
	if e == nil {
		return
	}
	fn(e)
	switch x := e.(type) {
	case *MemberExpr:
		walkExpr(x.X, fn)
	case *IndexExpr:
		walkExpr(x.X, fn)
		walkExpr(x.Idx, fn)
	case *CallExpr:
		for _, a := range x.Args {
			walkExpr(a, fn)
		}
	case *UnaryExpr:
		walkExpr(x.X, fn)
	case *BinaryExpr:
		walkExpr(x.X, fn)
		walkExpr(x.Y, fn)
	case *AssignExpr:
		walkExpr(x.LHS, fn)
		walkExpr(x.RHS, fn)
	case *IncDecExpr:
		walkExpr(x.X, fn)
	}
}

// walkStmt calls fn on s and every nested statement.
func walkStmt(s Stmt, fn func(Stmt)) {
	if s == nil {
		return
	}
	fn(s)
	switch x := s.(type) {
	case *BlockStmt:
		for _, st := range x.Stmts {
			walkStmt(st, fn)
		}
	case *LoopStmt:
		walkStmt(x.Init, fn)
		walkStmt(x.Post, fn)
		walkStmt(x.Body, fn)
	case *IfStmt:
		walkStmt(x.Then, fn)
		walkStmt(x.Else, fn)
	}
}

// forEachStmtExpr calls fn on the expressions directly held by s (not those
// of nested statements).
func forEachStmtExpr(s Stmt, fn func(Expr)) {
	switch x := s.(type) {
	case *DeclStmt:
		for _, init := range x.Inits {
			if init != nil {
				fn(init)
			}
		}
	case *LoopStmt:
		if x.Cond != nil {
			fn(x.Cond)
		}
	case *IfStmt:
		fn(x.Cond)
	case *ExprStmt:
		fn(x.X)
	case *ActionStmt:
		fn(x.Percent)
		for _, e := range x.A {
			fn(e)
		}
		for _, e := range x.B {
			fn(e)
		}
	}
}

// exprListEqual reports syntactic equality of two expression lists.
func exprListEqual(a, b []Expr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !exprEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// exprEqual reports structural equality of two expressions, ignoring
// positions.
func exprEqual(a, b Expr) bool {
	switch x := a.(type) {
	case *IntLit:
		y, ok := b.(*IntLit)
		return ok && x.Value == y.Value
	case *FloatLit:
		y, ok := b.(*FloatLit)
		return ok && x.Value == y.Value
	case *Ident:
		y, ok := b.(*Ident)
		return ok && x.Name == y.Name
	case *MemberExpr:
		y, ok := b.(*MemberExpr)
		return ok && x.Name == y.Name && exprEqual(x.X, y.X)
	case *IndexExpr:
		y, ok := b.(*IndexExpr)
		return ok && exprEqual(x.X, y.X) && exprEqual(x.Idx, y.Idx)
	case *CallExpr:
		y, ok := b.(*CallExpr)
		if !ok || x.Name != y.Name || len(x.Args) != len(y.Args) {
			return false
		}
		return exprListEqual(x.Args, y.Args)
	case *UnaryExpr:
		y, ok := b.(*UnaryExpr)
		return ok && x.Op == y.Op && exprEqual(x.X, y.X)
	case *BinaryExpr:
		y, ok := b.(*BinaryExpr)
		return ok && x.Op == y.Op && exprEqual(x.X, y.X) && exprEqual(x.Y, y.Y)
	case *SizeofExpr:
		y, ok := b.(*SizeofExpr)
		return ok && x.Type == y.Type
	}
	return false
}

// --- Auto-instantiation --------------------------------------------------

// AutoInstantiate binds heuristic small actual parameters — scalar ints
// become 2, doubles 1.0, integer arrays are filled with ones — and
// evaluates the model. The communication-graph lints use the resulting
// tiny instance to unroll the scheme; models whose parameters carry
// non-trivial invariants (block sizes that must divide, distributions that
// must tile) may fail to auto-instantiate, in which case callers fall back
// to explicit arguments.
func (m *Model) AutoInstantiate() (*Instance, error) {
	return m.instantiate(func(i int, dims []int) (any, error) {
		prm := m.File.Algorithm.Params[i]
		switch {
		case len(dims) > 0:
			return filledSlice(prm, dims, 1)
		case prm.Type.Kind == TypeDouble:
			return 1.0, nil
		}
		return 2, nil
	}, 64)
}

// filledSlice builds the nested Go slice of the declared dimensionality
// with every element v.
func filledSlice(prm Param, dims []int, v int) (any, error) {
	if prm.Type.Kind == TypeDouble {
		if len(dims) != 1 {
			return nil, errf(prm.Pos, "cannot auto-instantiate multi-dimensional double parameter %s", prm.Name)
		}
		return repeat(float64(v), dims[0]), nil
	}
	switch len(dims) {
	case 1:
		return repeat(v, dims[0]), nil
	case 2:
		return nest[[]int](prm, dims, v), nil
	case 3:
		return nest[[][]int](prm, dims, v), nil
	case 4:
		return nest[[][][]int](prm, dims, v), nil
	}
	return nil, errf(prm.Pos, "cannot auto-instantiate %d-dimensional parameter %s", len(dims), prm.Name)
}

func repeat[T any](v T, n int) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// nest builds the outermost level of filledSlice out of dims[0] inner
// slices of type T.
func nest[T any](prm Param, dims []int, v int) []T {
	out := make([]T, dims[0])
	for i := range out {
		inner, _ := filledSlice(prm, dims[1:], v)
		out[i] = inner.(T)
	}
	return out
}

// --- Symbolic scheme unrolling -------------------------------------------

// TraceOp is one activity of the unrolled scheme: a computation on Src
// (Dst == -1) or a transfer Src -> Dst, in abstract processor indices.
type TraceOp struct {
	Src, Dst int
	Pos      Pos
}

// Comm reports whether the op is a transfer.
func (op *TraceOp) Comm() bool { return op.Dst >= 0 }

// TraceNode is a series-parallel trace of the scheme: either a leaf
// activity (Op non-nil) or a composition of children — sequential when Par
// is false, concurrent when true. It is the communication structure the
// modelcheck lints analyse, mirroring how BuildDAG threads dependencies.
type TraceNode struct {
	Par  bool
	Op   *TraceOp
	Kids []*TraceNode
}

// Ops appends every leaf activity under n to out, in scheme order.
func (n *TraceNode) Ops(out []*TraceOp) []*TraceOp {
	if n == nil {
		return out
	}
	if n.Op != nil {
		return append(out, n.Op)
	}
	for _, k := range n.Kids {
		out = k.Ops(out)
	}
	return out
}

// UnrollScheme symbolically executes the scheme declaration with the
// interpreter BuildDAG uses (walkScheme) — so control flow, and the checks
// on an activity's percentage (evaluation errors, negative values), are
// BuildDAG's — but records the series-parallel structure of the generated
// activities instead of a dependency DAG. Sequential composition is
// associative and comes out flat: a block or seq loop nested in a sequence
// contributes its activities to that sequence.
func (inst *Instance) UnrollScheme() (*TraceNode, error) {
	u := &unroller{}
	kids, err := walkScheme[[]*TraceNode](inst.schemeFrame(), u, inst.Model.prog.scheme, nil)
	if err != nil {
		return nil, err
	}
	if n := seqNode(kids); n != nil {
		return n, nil
	}
	return &TraceNode{}, nil
}

// unroller is the scheme sink that builds the trace: the state is the
// children of the enclosing sequential composition so far.
type unroller struct {
	ops int
}

// maxUnrollOps bounds the trace size; lint instantiations are tiny, so a
// model hitting this is itself suspect.
const maxUnrollOps = 1 << 20

// seqNode wraps children in a sequential composition, collapsing the
// trivial cases.
func seqNode(kids []*TraceNode) *TraceNode {
	switch len(kids) {
	case 0:
		return nil
	case 1:
		return kids[0]
	}
	return &TraceNode{Kids: kids}
}

func (u *unroller) action(pos Pos, src, dst int, _ float64, in []*TraceNode) ([]*TraceNode, error) {
	u.ops++
	if u.ops > maxUnrollOps {
		return nil, errf(pos, "scheme unrolls to more than %d activities", maxUnrollOps)
	}
	return append(in, &TraceNode{Op: &TraceOp{Src: src, Dst: dst, Pos: pos}}), nil
}

// fork: a par iteration is its own sequence.
func (u *unroller) fork([]*TraceNode) []*TraceNode { return nil }

// join collects the par branches, dropping iterations that generated
// nothing.
func (u *unroller) join(acc, out []*TraceNode) []*TraceNode {
	if n := seqNode(out); n != nil {
		acc = append(acc, n)
	}
	return acc
}

func (u *unroller) merge(in, acc []*TraceNode) []*TraceNode {
	switch len(acc) {
	case 0:
		return in
	case 1:
		return append(in, acc[0])
	}
	return append(in, &TraceNode{Par: true, Kids: acc})
}
