package pmdl

import (
	"fmt"
	"slices"
)

// Static semantic analysis of a model file — name resolution, arity checks
// and structural rules, reported before any instantiation — and, in the same
// walk, its compilation: every name the walk resolves becomes a frame slot
// and every expression it checks is lowered (compile.go) with its slots
// bound. The paper's toolchain compiles model descriptions ahead of time
// (Figure 1); this is that compiler. ParseModel runs it. The same walk
// records the structural lints (lint.go) of the node, link, parent and
// scheme sections: a name it resolves to a coordinate is a use of that
// coordinate, a constant subscript it compiles is checked against the
// array's constant extent.
//
// Checked rules:
//
//   - parameter, coordinate and link-variable names are unique;
//   - every identifier in node/link/parent/scheme resolves to a parameter,
//     coordinate, link variable or (in schemes) a local declaration in
//     scope;
//   - struct types exist and member accesses name real fields;
//   - coordinate target lists ([...] in actions, link clauses and parent)
//     have exactly one expression per coordinate;
//   - array subscripts do not exceed the declared dimensionality;
//   - assignment targets are lvalues, and not arrays.
//
// Host-function calls cannot be resolved statically (they are registered
// at run time), so call names are not checked here; unknown functions
// surface when the call is evaluated. So do operations whose operands have
// the wrong kind (arithmetic on an array, a struct assigned to an int):
// kinds are known here, but the diagnostic belongs to the evaluation that
// reaches the expression, after the operands' own errors.

// compile performs the semantic analysis — it returns the first error —
// and lowers the file.
func compile(f *File) (*program, error) {
	c := &checker{
		structs: make(map[string]*StructDef),
		coords:  f.Algorithm.Coords,
		used:    make([]bool, len(f.Algorithm.Coords)),
	}
	for _, td := range f.Typedefs {
		if _, dup := c.structs[td.Name]; dup {
			return nil, errf(td.Pos, "duplicate struct typedef %q", td.Name)
		}
		fields := map[string]bool{}
		for _, fd := range td.Fields {
			if fields[fd] {
				return nil, errf(td.Pos, "duplicate field %q in struct %s", fd, td.Name)
			}
			fields[fd] = true
		}
		c.structs[td.Name] = td
	}
	alg := f.Algorithm
	p := &program{}
	var err error

	// Parameters. Dimension expressions may reference earlier parameters.
	global := newScope(nil)
	for _, prm := range alg.Params {
		if prm.Type.Kind == TypeStruct {
			if _, ok := c.structs[prm.Type.Struct]; !ok {
				return nil, errf(prm.Pos, "parameter %s has unknown type %q", prm.Name, prm.Type.Struct)
			}
		}
		cp := cparam{slot: c.nslots}
		if cp.dims, err = c.scalars(prm.Dims, global, prm.Pos); err != nil {
			return nil, err
		}
		if len(prm.Dims) > 0 {
			cp.slot = p.narrays
			p.narrays++
		} else {
			c.nslots++
		}
		if err := global.declare(prm.Pos, prm.Name, symbol{dims: len(prm.Dims), extent: prm.Dims, typ: prm.Type, slot: cp.slot}); err != nil {
			return nil, err
		}
		p.params = append(p.params, cp)
	}

	// Coordinates: sizes reference parameters; names join the scope, but
	// only the node and link clauses are evaluated with them bound.
	p.coordSlot, c.coordSlot = c.nslots, c.nslots
	for _, cv := range alg.Coords {
		size, err := c.scalar(cv.Size, global, cv.Pos)
		if err != nil {
			return nil, err
		}
		p.coordSizes = append(p.coordSizes, size)
		if err := global.declare(cv.Pos, cv.Name, symbol{typ: TypeRef{Kind: TypeInt}, slot: c.nslots, coord: true}); err != nil {
			return nil, err
		}
		c.nslots++
	}

	// Node clauses.
	c.lint = true
	c.inClause = true
	for _, cl := range alg.Nodes {
		n := cnode{pos: cl.Pos}
		if n.guard, err = c.scalar(cl.Guard, global, exprPos(cl.Guard)); err != nil {
			return nil, err
		}
		if n.volume, err = c.scalar(cl.Volume, global, cl.Pos); err != nil {
			return nil, err
		}
		p.nodes = append(p.nodes, n)
	}
	c.inClause = false

	// Link clauses, with the link variables in scope.
	if alg.Link != nil {
		linkScope := newScope(global)
		p.linkSlot = c.nslots
		for _, lv := range alg.Link.Vars {
			size, err := c.scalar(lv.Size, global, lv.Pos)
			if err != nil {
				return nil, err
			}
			p.linkSizes = append(p.linkSizes, size)
			if err := linkScope.declare(lv.Pos, lv.Name, symbol{typ: TypeRef{Kind: TypeInt}, slot: c.nslots}); err != nil {
				return nil, err
			}
			c.nslots++
		}
		c.inClause = true
		for _, cl := range alg.Link.Clauses {
			l := clink{pos: cl.Pos}
			if l.guard, err = c.scalar(cl.Guard, linkScope, exprPos(cl.Guard)); err != nil {
				return nil, err
			}
			if l.volume, err = c.scalar(cl.Volume, linkScope, cl.Pos); err != nil {
				return nil, err
			}
			for _, side := range [][]Expr{cl.Src, cl.Dst} {
				if len(side) != len(c.coords) {
					return nil, errf(cl.Pos, "link target names %d coordinates, algorithm has %d", len(side), len(c.coords))
				}
			}
			if l.src, err = c.scalars(cl.Src, linkScope, cl.Pos); err != nil {
				return nil, err
			}
			if l.dst, err = c.scalars(cl.Dst, linkScope, cl.Pos); err != nil {
				return nil, err
			}
			c.lintTargets(cl.Pos, cl.Src)
			c.lintTargets(cl.Pos, cl.Dst)
			if exprListEqual(cl.Src, cl.Dst) {
				c.lintf(cl.Pos, LintSelfComm, SevError,
					"link clause transfers from a processor to itself; self transfers carry no cost and are dropped")
			}
			p.links = append(p.links, l)
		}
		c.inClause = false
	}

	// Parent.
	if alg.Parent != nil {
		if len(alg.Parent) != len(c.coords) {
			return nil, errf(alg.Pos, "parent names %d coordinates, algorithm has %d", len(alg.Parent), len(c.coords))
		}
		if p.parent, err = c.scalars(alg.Parent, global, alg.Pos); err != nil {
			return nil, err
		}
		c.lintTargets(alg.Pos, alg.Parent)
	}

	// Scheme.
	if p.scheme, err = c.stmt(alg.Scheme, newScope(global)); err != nil {
		return nil, err
	}
	for i, cv := range alg.Coords {
		if !c.used[i] {
			c.lintf(cv.Pos, LintUnusedCoord, SevWarn,
				"coordinate %s is declared but never used in node, link, parent or scheme", cv.Name)
		}
	}
	p.nslots, p.nargs, p.writes, p.lints = c.nslots, c.nargs, c.writes, c.lints
	return p, nil
}

// symbol is a declared name. slot is the frame slot of a scalar, the first
// field's slot of a struct local, or the index of an array parameter.
type symbol struct {
	dims   int    // >0 for arrays
	extent []Expr // an array parameter's declared dimensions
	typ    TypeRef
	slot   int
	def    *StructDef // struct locals
	coord  bool
}

func (sym symbol) operand() operand {
	switch {
	case sym.dims > 0:
		return indexOperand(sym.slot, sym.dims, nil)
	case sym.def != nil:
		return structOperand(sym.slot, sym.def)
	}
	return slotOperand(sym.slot)
}

// scope is a lexical scope for the checker.
type scope struct {
	names  map[string]symbol
	parent *scope
}

func newScope(parent *scope) *scope {
	return &scope{names: make(map[string]symbol), parent: parent}
}

func (s *scope) declare(pos Pos, name string, sym symbol) error {
	if _, dup := s.names[name]; dup {
		return errf(pos, "redeclaration of %q", name)
	}
	s.names[name] = sym
	return nil
}

func (s *scope) lookup(name string) (symbol, bool) {
	for sc := s; sc != nil; sc = sc.parent {
		if sym, ok := sc.names[name]; ok {
			return sym, true
		}
	}
	return symbol{}, false
}

type checker struct {
	structs map[string]*StructDef
	coords  []CoordVar
	nslots  int  // frame slots assigned so far
	nargs   int  // host-call argument scratch assigned so far
	writes  bool // see program.writes
	// inClause is set while a node or link clause is compiled: the only
	// places a coordinate variable holds a value.
	inClause bool
	// realDiv is set while the percentage of a %% action is compiled.
	realDiv bool
	// lint is set from the node section on: the structural lints look at
	// node, link, parent and scheme, not at parameter extents or
	// coordinate sizes.
	lint      bool
	coordSlot int    // frame slot of the first coordinate
	used      []bool // per coordinate: an identifier resolved to it
	lints     []Diag
}

func (c *checker) stmt(s Stmt, sc *scope) (cstmt, error) {
	switch x := s.(type) {
	case *BlockStmt:
		inner := newScope(sc)
		out := &cblock{}
		for _, st := range x.Stmts {
			cs, err := c.stmt(st, inner)
			if err != nil {
				return nil, err
			}
			out.stmts = append(out.stmts, cs)
		}
		return out, nil
	case *DeclStmt:
		out := &cdecl{lo: c.nslots, zero: num{dbl: x.Type.Kind == TypeDouble}}
		var def *StructDef
		width := 1
		if x.Type.Kind == TypeStruct {
			if def = c.structs[x.Type.Struct]; def == nil {
				return nil, errf(x.Pos, "unknown struct type %q", x.Type.Struct)
			}
			width = len(def.Fields)
		}
		for i, name := range x.Names {
			// The variable is in scope in its own initialiser, as in C.
			sym := symbol{typ: x.Type, slot: c.nslots, def: def}
			if err := sc.declare(x.Pos, name, sym); err != nil {
				return nil, err
			}
			c.nslots += width
			if x.Inits[i] != nil {
				src, err := c.expr(x.Inits[i], sc)
				if err != nil {
					return nil, err
				}
				out.inits = append(out.inits, assignOperand(x.Pos, TokAssign, sym.operand(), src).num)
			}
		}
		out.hi = c.nslots
		return out, nil
	case *LoopStmt:
		inner := newScope(sc)
		out := &cloop{par: x.Par, pos: x.Pos}
		var err error
		if x.Init != nil {
			if out.init, err = c.stmt(x.Init, inner); err != nil {
				return nil, err
			}
		}
		if x.Cond != nil {
			if out.cond, err = c.scalar(x.Cond, inner, exprPos(x.Cond)); err != nil {
				return nil, err
			}
		} else if !x.Par {
			return nil, errf(x.Pos, "for loop without a condition never terminates")
		}
		if x.Post != nil {
			if out.post, err = c.stmt(x.Post, inner); err != nil {
				return nil, err
			}
		}
		out.body, err = c.stmt(x.Body, inner)
		return out, err
	case *IfStmt:
		out := &cif{}
		var err error
		if out.cond, err = c.scalar(x.Cond, sc, exprPos(x.Cond)); err != nil {
			return nil, err
		}
		if out.then, err = c.stmt(x.Then, sc); err != nil {
			return nil, err
		}
		if x.Else != nil {
			out.els, err = c.stmt(x.Else, sc)
		}
		return out, err
	case *ExprStmt:
		o, err := c.expr(x.X, sc)
		if err != nil {
			return nil, err
		}
		if o.num == nil { // a bare struct, array or & expression: evaluate and discard
			val := o.val
			return &cexpr{func(fr *frame) num { val(fr); return num{} }}, nil
		}
		return &cexpr{o.num}, nil
	case *ActionStmt:
		out := &caction{pos: x.Pos}
		var err error
		c.realDiv = true
		out.pct, err = c.scalar(x.Percent, sc, x.Pos)
		c.realDiv = false
		if err != nil {
			return nil, err
		}
		for _, side := range [][]Expr{x.A, x.B} {
			if side != nil && len(side) != len(c.coords) {
				return nil, errf(x.Pos, "action target names %d coordinates, algorithm has %d", len(side), len(c.coords))
			}
		}
		if out.a, err = c.scalars(x.A, sc, x.Pos); err != nil {
			return nil, err
		}
		if out.b, err = c.scalars(x.B, sc, x.Pos); err != nil {
			return nil, err
		}
		c.lintTargets(x.Pos, x.A)
		c.lintTargets(x.Pos, x.B)
		if x.B != nil && exprListEqual(x.A, x.B) {
			c.lintf(x.Pos, LintSelfComm, SevError, "communication action sends from a processor to itself")
		}
		return out, nil
	}
	return nil, fmt.Errorf("pmdl: unknown statement %T", s)
}

// scalar compiles an expression that is used as a number; pos is where the
// evaluation reports an operand that turns out not to be one.
func (c *checker) scalar(e Expr, sc *scope, pos Pos) (scalarFn, error) {
	o, err := c.expr(e, sc)
	if err != nil {
		return nil, err
	}
	if o.kind != kindInt {
		o = notNumeric(pos, o, o)
	}
	return o.num, nil
}

// scalars compiles a list with scalar; a nil list stays nil.
func (c *checker) scalars(es []Expr, sc *scope, pos Pos) ([]scalarFn, error) {
	var out []scalarFn
	for _, e := range es {
		fn, err := c.scalar(e, sc, pos)
		if err != nil {
			return nil, err
		}
		out = append(out, fn)
	}
	return out, nil
}

func (c *checker) expr(e Expr, sc *scope) (operand, error) {
	switch x := e.(type) {
	case *IntLit:
		return constOperand(intNum(x.Value)), nil
	case *FloatLit:
		return constOperand(dblNum(x.Value)), nil
	case *SizeofExpr:
		if x.Type.Kind == TypeDouble {
			return constOperand(intNum(8)), nil
		}
		return constOperand(intNum(4)), nil
	case *Ident:
		sym, ok := sc.lookup(x.Name)
		if !ok {
			return operand{}, errf(x.Pos, "undefined name %q", x.Name)
		}
		if sym.coord && c.lint {
			c.used[sym.slot-c.coordSlot] = true
		}
		if sym.coord && !c.inClause {
			return failOperand(x.Pos, fmt.Sprintf("undefined name %q", x.Name)), nil
		}
		return sym.operand(), nil
	case *MemberExpr:
		// The base must be a struct-typed name; resolve its type when
		// statically known.
		if id, ok := x.X.(*Ident); ok {
			sym, found := sc.lookup(id.Name)
			if !found {
				return operand{}, errf(id.Pos, "undefined name %q", id.Name)
			}
			if sym.typ.Kind != TypeStruct {
				return operand{}, errf(x.Pos, "%q is not a struct", id.Name)
			}
			field := slices.Index(c.structs[sym.typ.Struct].Fields, x.Name)
			if field < 0 {
				return operand{}, errf(x.Pos, "struct %s has no field %q", sym.typ.Struct, x.Name)
			}
			if sym.def != nil {
				return slotOperand(sym.slot + field), nil
			}
			// A struct-typed parameter is bound to a number, not a struct.
		}
		base, err := c.expr(x.X, sc)
		if err != nil {
			return operand{}, err
		}
		return failOperand(x.Pos, "member access on non-struct value", base), nil
	case *IndexExpr:
		// Unwind x[i][j]... into the base and its subscripts in order.
		var subs []subscript
		base := e
		for {
			ix, ok := base.(*IndexExpr)
			if !ok {
				break
			}
			idx, err := c.scalar(ix.Idx, sc, ix.Pos)
			if err != nil {
				return operand{}, err
			}
			subs = append(subs, subscript{idx, ix.Pos})
			base = ix.X
		}
		slices.Reverse(subs)
		id, ok := base.(*Ident)
		if !ok {
			// Only a parameter name is an array: whatever this base is,
			// it is evaluated and then refused, before any subscript.
			b, err := c.expr(base, sc)
			if err != nil {
				return operand{}, err
			}
			return failOperand(subs[0].pos, "indexing a non-array value", b), nil
		}
		sym, found := sc.lookup(id.Name)
		if !found {
			return operand{}, errf(id.Pos, "undefined name %q", id.Name)
		}
		if sym.dims == 0 {
			return operand{}, errf(x.Pos, "%q is not an array", id.Name)
		}
		if len(subs) > sym.dims {
			return operand{}, errf(x.Pos, "%q has %d dimensions, %d subscripts given", id.Name, sym.dims, len(subs))
		}
		if c.lint {
			c.lintIndex(x, id.Name, sym.extent[:len(subs)])
		}
		return indexOperand(sym.slot, sym.dims, subs), nil
	case *CallExpr:
		// Host functions are resolved at run time; only check args.
		args := make([]operand, len(x.Args))
		for i, a := range x.Args {
			var err error
			if args[i], err = c.expr(a, sc); err != nil {
				return operand{}, err
			}
		}
		base := c.nargs
		c.nargs += len(args)
		return callOperand(x.Pos, x.Name, args, base), nil
	case *UnaryExpr:
		switch x.Op {
		case TokAmp:
			if !isLvalue(x.X) {
				return operand{}, errf(x.Pos, "& requires an assignable operand")
			}
			o, err := c.expr(x.X, sc)
			c.writes = c.writes || o.elem || o.kind == kindArray
			return refOperand(o), err
		case TokMinus:
			o, err := c.expr(x.X, sc)
			if err != nil || o.kind != kindInt {
				return failOperand(x.Pos, "unary - on non-numeric value", o), err
			}
			return negOperand(o.num), nil
		case TokNot:
			v, err := c.scalar(x.X, sc, x.Pos)
			return scalarOperand(func(fr *frame) num { return boolNum(v(fr).int() == 0) }), err
		}
		return operand{}, errf(x.Pos, "invalid unary operator %s", x.Op)
	case *BinaryExpr:
		if x.Op == TokAndAnd || x.Op == TokOrOr {
			l, err := c.scalar(x.X, sc, x.Pos)
			if err != nil {
				return operand{}, err
			}
			r, err := c.scalar(x.Y, sc, x.Pos)
			return logicOperand(x.Op == TokAndAnd, l, r), err
		}
		l, err := c.expr(x.X, sc)
		if err != nil {
			return operand{}, err
		}
		r, err := c.expr(x.Y, sc)
		if err != nil {
			return operand{}, err
		}
		for _, o := range []operand{l, r} {
			if o.kind != kindInt {
				return notNumeric(x.Pos, o, l, r), nil
			}
		}
		return binaryOperand(x.Pos, x.Op, l.num, r.num, c.realDiv), nil
	case *AssignExpr:
		if !isLvalue(x.LHS) {
			return operand{}, errf(x.Pos, "left side of assignment is not assignable")
		}
		dst, err := c.expr(x.LHS, sc)
		if err != nil {
			return operand{}, err
		}
		if dst.kind == kindArray {
			return operand{}, errf(x.Pos, "left side of assignment is not assignable")
		}
		src, err := c.expr(x.RHS, sc)
		if err != nil {
			return operand{}, err
		}
		c.writes = c.writes || dst.elem
		return assignOperand(x.Pos, x.Op, dst, src), nil
	case *IncDecExpr:
		if !isLvalue(x.X) {
			return operand{}, errf(x.Pos, "operand of ++/-- is not assignable")
		}
		o, err := c.expr(x.X, sc)
		if err != nil {
			return operand{}, err
		}
		c.writes = c.writes || o.elem
		return incDecOperand(x.Pos, x.Op, o), nil
	}
	return operand{}, fmt.Errorf("pmdl: unknown expression %T", e)
}

func isLvalue(e Expr) bool {
	switch e.(type) {
	case *Ident, *MemberExpr, *IndexExpr:
		return true
	}
	return false
}
