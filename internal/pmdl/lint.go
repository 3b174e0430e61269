package pmdl

// Static lints for performance models, beyond the hard semantic rules the
// checker enforces. The paper's toolchain compiles a model ahead of time so
// the runtime can reason about the algorithm before running it
// (HMPI_Timeof, HMPI_Group_create); the lints extend that static reasoning
// from performance to correctness. Lint is the one entry point, with two
// passes. The structural lints (unusedcoord, constindex, the syntactic
// selfcomm) are recorded by the checker (sema.go) while it compiles the
// node, link, parent and scheme sections, so every name resolves the way
// compilation resolves it. The communication-graph lints bind heuristic
// small arguments (AutoInstantiate) unless explicit ones are given, unroll
// the scheme into a series-parallel trace (unrollScheme) and check its
// transfers against the link section and against each other.

import (
	"fmt"
	"slices"
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
	// never transfers between (HMPI_Timeof charges traffic the algorithm
	// never performs).
	LintLinkUnused = "linkunused"
	// LintNoLink: a scheme transfer between a pair with no declared link
	// volume (real traffic the model hides from group selection).
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

// Lint runs every model lint: the structural findings the checker recorded
// plus the communication-graph pass over a small instantiation. Explicit
// instantiation arguments override the automatic ones; when instantiation
// or unrolling fails, the graph lints are skipped and a single advisory
// noinstance diagnostic explains why.
func Lint(m *Model, args ...any) []Diag {
	diags := slices.Clone(m.prog.lints)
	var inst *Instance
	var err error
	if len(args) > 0 {
		inst, err = m.Instantiate(args...)
	} else {
		inst, err = m.AutoInstantiate()
	}
	var trace *traceNode
	if err != nil {
		err = fmt.Errorf("%w (pass explicit -args)", err)
	} else if trace, err = inst.unrollScheme(); err != nil {
		err = fmt.Errorf("scheme unrolling failed: %w", err)
	}
	if err != nil {
		diags = append(diags, Diag{
			Code: LintNoInstance, Severity: SevWarn,
			Message: "communication-graph lints skipped: " + err.Error(),
		})
		sortDiags(diags)
		return diags
	}
	// The structural pass may already have flagged an action as a self
	// transfer; drop the dynamic duplicate at the same position.
	structSelf := make(map[Pos]bool)
	for _, d := range diags {
		if d.Code == LintSelfComm {
			structSelf[d.Pos] = true
		}
	}
	for _, d := range lintGraph(inst, trace) {
		if d.Code == LintSelfComm && structSelf[d.Pos] {
			continue
		}
		diags = append(diags, d)
	}
	diags = dedupe(diags)
	sortDiags(diags)
	return diags
}

// sortDiags orders diagnostics by source position, then code.
func sortDiags(diags []Diag) {
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

// --- Structural lints, recorded by the checker ---------------------------

// lintf records a structural finding.
func (c *checker) lintf(pos Pos, code string, sev Severity, format string, args ...any) {
	c.lints = append(c.lints, Diag{Pos: pos, Code: code, Severity: sev, Message: fmt.Sprintf(format, args...)})
}

// lintTargets reports constant coordinate targets outside a constant
// coordinate size.
func (c *checker) lintTargets(pos Pos, side []Expr) {
	for i, e := range side {
		if v, why := outOfRange(e, c.coords[i].Size); why != "" {
			c.lintf(pos, LintConstIndex, SevError, "coordinate target %d %s", v, why)
		}
	}
}

// lintIndex reports the constant subscripts of the index chain x, on an
// array parameter with the given extents, that lie outside a constant
// extent.
func (c *checker) lintIndex(x *IndexExpr, name string, extent []Expr) {
	for i := len(extent) - 1; i >= 0; i-- {
		if v, why := outOfRange(x.Idx, extent[i]); why != "" {
			c.lintf(exprPos(x.Idx), LintConstIndex, SevError, "index %d of %s %s", v, name, why)
		}
		x, _ = x.X.(*IndexExpr)
	}
}

// outOfRange says why the constant e lies outside [0,bound): "" when it
// does not, or when e is not a constant (a bound that is not a constant
// only rules out negative values).
func outOfRange(e, bound Expr) (int64, string) {
	v, ok := constValue(e)
	switch b, bok := constValue(bound); {
	case !ok:
	case v < 0:
		return v, "is negative"
	case bok && v >= b:
		return v, fmt.Sprintf("is out of range [0,%d)", b)
	}
	return v, ""
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

// traceOp is one activity of the unrolled scheme: a computation on Src
// (Dst == -1) or a transfer Src -> Dst, in abstract processor indices.
type traceOp struct {
	Src, Dst int
	Pos      Pos
}

// Comm reports whether the op is a transfer.
func (op *traceOp) Comm() bool { return op.Dst >= 0 }

// traceNode is a series-parallel trace of the scheme: either a leaf
// activity (Op non-nil) or a composition of children — sequential when Par
// is false, concurrent when true. It is the communication structure the
// graph lints analyse, mirroring how BuildDAG threads dependencies.
type traceNode struct {
	Par  bool
	Op   *traceOp
	Kids []*traceNode
}

// Ops appends every leaf activity under n to out, in scheme order.
func (n *traceNode) Ops(out []*traceOp) []*traceOp {
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

// unrollScheme symbolically executes the scheme declaration with the
// interpreter BuildDAG uses (walkScheme) — so control flow, and the checks
// on an activity's percentage (evaluation errors, negative values), are
// BuildDAG's — but records the series-parallel structure of the generated
// activities instead of a dependency DAG. Sequential composition is
// associative and comes out flat: a block or seq loop nested in a sequence
// contributes its activities to that sequence.
func (inst *Instance) unrollScheme() (*traceNode, error) {
	u := &unroller{}
	kids, err := walkScheme[[]*traceNode](inst.schemeFrame(), u, inst.Model.prog.scheme, nil)
	if err != nil {
		return nil, err
	}
	if n := seqNode(kids); n != nil {
		return n, nil
	}
	return &traceNode{}, nil
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
func seqNode(kids []*traceNode) *traceNode {
	switch len(kids) {
	case 0:
		return nil
	case 1:
		return kids[0]
	}
	return &traceNode{Kids: kids}
}

func (u *unroller) action(pos Pos, src, dst int, _ float64, in []*traceNode) ([]*traceNode, error) {
	u.ops++
	if u.ops > maxUnrollOps {
		return nil, errf(pos, "scheme unrolls to more than %d activities", maxUnrollOps)
	}
	return append(in, &traceNode{Op: &traceOp{Src: src, Dst: dst, Pos: pos}}), nil
}

// fork: a par iteration is its own sequence.
func (u *unroller) fork([]*traceNode) []*traceNode { return nil }

// join collects the par branches, dropping iterations that generated
// nothing.
func (u *unroller) join(acc, out []*traceNode) []*traceNode {
	if n := seqNode(out); n != nil {
		acc = append(acc, n)
	}
	return acc
}

func (u *unroller) merge(in, acc []*traceNode) []*traceNode {
	switch len(acc) {
	case 0:
		return in
	case 1:
		return append(in, acc[0])
	}
	return append(in, &traceNode{Par: true, Kids: acc})
}

// --- Communication-graph lints -------------------------------------------

// lintGraph runs the communication-graph lints over an unrolled instance.
func lintGraph(inst *Instance, trace *traceNode) []Diag {
	var diags []Diag

	ops := trace.Ops(nil)
	exercised := make(map[[2]int]bool)
	selfAt := make(map[Pos]bool)
	nolinkAt := make(map[Pos]bool)
	for _, op := range ops {
		if !op.Comm() {
			continue
		}
		if op.Src == op.Dst {
			if !selfAt[op.Pos] {
				selfAt[op.Pos] = true
				diags = append(diags, Diag{
					Pos: op.Pos, Code: LintSelfComm, Severity: SevError,
					Message: sprintfCoords(inst, "communication action evaluates to a self transfer on processor %v", op.Src),
				})
			}
			continue
		}
		exercised[[2]int{op.Src, op.Dst}] = true
		if inst.CommVolume[op.Src][op.Dst] == 0 && !nolinkAt[op.Pos] {
			nolinkAt[op.Pos] = true
			diags = append(diags, Diag{
				Pos: op.Pos, Code: LintNoLink, Severity: SevWarn,
				Message: sprintfPair(inst, "scheme transfers %v -> %v but the link section declares no volume for the pair", op.Src, op.Dst),
			})
		}
	}

	linkPos := Pos{}
	if l := inst.Model.File.Algorithm.Link; l != nil {
		linkPos = l.Pos
	}
	for src := 0; src < inst.NumProcs; src++ {
		for dst := 0; dst < inst.NumProcs; dst++ {
			if inst.CommVolume[src][dst] > 0 && !exercised[[2]int{src, dst}] {
				diags = append(diags, Diag{
					Pos: linkPos, Code: LintLinkUnused, Severity: SevWarn,
					Message: sprintfPair(inst, "link declares volume for %v -> %v but the scheme never transfers between the pair", src, dst),
				})
			}
		}
	}

	diags = append(diags, checkSeqCycles(inst, trace)...)
	return diags
}

// checkSeqCycles finds directed cycles among maximal runs of consecutive
// transfer leaves in sequential compositions.
func checkSeqCycles(inst *Instance, n *traceNode) []Diag {
	var diags []Diag
	var visit func(*traceNode)
	visit = func(n *traceNode) {
		if n == nil || n.Op != nil {
			return
		}
		if !n.Par {
			var run []*traceOp
			flush := func() {
				if len(run) > 1 {
					if d, ok := cycleDiag(inst, run); ok {
						diags = append(diags, d)
					}
				}
				run = nil
			}
			for _, k := range n.Kids {
				if k.Op != nil && k.Op.Comm() && k.Op.Src != k.Op.Dst {
					run = append(run, k.Op)
					continue
				}
				flush()
			}
			flush()
		}
		for _, k := range n.Kids {
			visit(k)
		}
	}
	visit(n)
	return diags
}

// cycleDiag reports whether the run's transfer edges contain a directed
// cycle, and if so builds the diagnostic.
func cycleDiag(inst *Instance, run []*traceOp) (Diag, bool) {
	adj := make(map[int][]int)
	for _, op := range run {
		adj[op.Src] = append(adj[op.Src], op.Dst)
	}
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[int]int)
	var cycleNode = -1
	var dfs func(v int) bool
	dfs = func(v int) bool {
		color[v] = grey
		for _, w := range adj[v] {
			if color[w] == grey {
				cycleNode = w
				return true
			}
			if color[w] == white && dfs(w) {
				return true
			}
		}
		color[v] = black
		return false
	}
	// Sorted starts: which processor of a cycle the message names must not
	// depend on map iteration order.
	starts := make([]int, 0, len(adj))
	for v := range adj {
		starts = append(starts, v)
	}
	sort.Ints(starts)
	for _, v := range starts {
		if color[v] == white && dfs(v) {
			break
		}
	}
	if cycleNode < 0 {
		return Diag{}, false
	}
	return Diag{
		Pos: run[0].Pos, Code: LintSeqCycle, Severity: SevError,
		Message: sprintfCoords(inst,
			"consecutive transfers in a sequential scheme segment form a cycle through processor %v; "+
				"a rendezvous send-first lowering of this segment deadlocks", cycleNode),
	}, true
}

func sprintfCoords(inst *Instance, format string, proc int) string {
	return fmt.Sprintf(format, inst.CoordsOf(proc))
}

func sprintfPair(inst *Instance, format string, src, dst int) string {
	return fmt.Sprintf(format, inst.CoordsOf(src), inst.CoordsOf(dst))
}

// dedupe removes exact duplicate findings.
func dedupe(diags []Diag) []Diag {
	type key struct {
		code string
		pos  Pos
		msg  string
	}
	seen := make(map[key]bool, len(diags))
	out := diags[:0]
	for _, d := range diags {
		k := key{d.Code, d.Pos, d.Message}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, d)
	}
	return out
}
