package pmdl

import "fmt"

// The compiled form of a model. Check resolves every name to a position in
// one flat frame and lowers every expression to a closure over that frame;
// what is left to do per instance is to run closures. Nothing here is
// written after ParseModel returns, so one program serves any number of
// concurrent evaluations, each on its own frame.

// program is what ParseModel compiles a model file to.
type program struct {
	nslots  int // frame size: parameters, coordinates, link variables, scheme locals
	narrays int // array parameters
	nargs   int // host-call argument scratch, a region per call site

	params     []cparam
	coordSlot  int // slot of the first coordinate variable; the scalar parameters occupy the slots before it
	coordSizes []scalarFn
	nodes      []cnode
	linkSlot   int // slot of the first link variable
	linkSizes  []scalarFn
	links      []clink
	parent     []scalarFn // nil: the first abstract processor
	scheme     cstmt
	// writes says the scheme may store into an array parameter (an
	// element assignment, or its address handed to a host function): each
	// evaluation then works on its own copy, so an Instance stays
	// read-only.
	writes bool
}

// cparam is one formal parameter: slot is its frame slot, or its index in
// frame.arrays when it has dimensions.
type cparam struct {
	slot int
	dims []scalarFn
}

type cnode struct {
	guard, volume scalarFn
	pos           Pos
}

type clink struct {
	guard, volume scalarFn
	src, dst      []scalarFn
	pos           Pos
}

// array is one bound array parameter, elements row-major.
type array struct {
	dims  []int
	elems []num
}

// frame is the state of one evaluation: Instantiate runs the node, link
// and parent sections on one, and every BuildDAG or UnrollScheme runs the
// scheme on a fresh one.
type frame struct {
	slots  []num
	arrays []array
	dims   []int   // coordinate ranges, once known
	coords []int64 // scratch: one coordinate tuple
	args   []Value // scratch: host-call arguments
	hosts  map[string]HostFunc
	iters  int // scheme loop iterations so far, all loops together
	// err is the first evaluation error. Closures record it and carry on
	// with a zero value; whoever runs a closure checks it before using
	// the result, and a host function is never called once it is set.
	err error
	// sink stands in for the storage of an lvalue that failed to resolve.
	sink num
}

func (p *program) newFrame(hosts map[string]HostFunc, dims []int) *frame {
	return &frame{
		slots:  make([]num, p.nslots),
		arrays: make([]array, p.narrays),
		dims:   dims,
		coords: make([]int64, len(p.coordSizes)),
		args:   make([]Value, p.nargs),
		hosts:  hosts,
	}
}

func (fr *frame) fail(pos Pos, format string, args ...any) {
	if fr.err == nil {
		fr.err = errf(pos, format, args...)
	}
}

// procIndex evaluates a coordinate list to an abstract processor index
// (row-major, first coordinate slowest).
func (fr *frame) procIndex(pos Pos, exprs []scalarFn) int {
	coords := fr.coords[:len(exprs)]
	for i, e := range exprs {
		coords[i] = e(fr).int()
	}
	idx := 0
	for k, c := range coords {
		if c < 0 || int(c) >= fr.dims[k] {
			fr.fail(pos, "coordinate %d out of range [0,%d)", c, fr.dims[k])
			return 0
		}
		idx = idx*fr.dims[k] + int(c)
	}
	return idx
}

// setTuple stores the tuple with row-major index idx over the given ranges
// into consecutive slots.
func (fr *frame) setTuple(slot, idx, total int, ranges []int) {
	for k, d := range ranges {
		total /= d
		fr.slots[slot+k] = intNum(int64(idx / total))
		idx %= total
	}
}

// scalarFn evaluates a scalar expression.
type scalarFn func(*frame) num

// operand is a lowered expression. Its kind is static: kindInt stands for
// any scalar. A scalar has num, and addr when it is assignable; every
// operand has val, its value as a host function sees it.
type operand struct {
	kind valueKind
	num  scalarFn
	addr func(*frame) *num
	val  func(*frame) Value
	def  *StructDef // kindStruct
	elem bool       // addr is an element of an array parameter
}

func scalarOperand(fn scalarFn) operand {
	return operand{kind: kindInt, num: fn, val: func(fr *frame) Value { return scalarValue(fn(fr)) }}
}

func constOperand(n num) operand {
	return scalarOperand(func(*frame) num { return n })
}

// cellOperand is an assignable scalar stored where addr says.
func cellOperand(addr func(*frame) *num) operand {
	o := scalarOperand(func(fr *frame) num { return *addr(fr) })
	o.addr = addr
	return o
}

// slotOperand is the scalar variable (or struct field) in a frame slot.
func slotOperand(slot int) operand {
	o := scalarOperand(func(fr *frame) num { return fr.slots[slot] })
	o.addr = func(fr *frame) *num { return &fr.slots[slot] }
	return o
}

// structOperand is the struct local whose fields start at slot.
func structOperand(slot int, def *StructDef) operand {
	n := len(def.Fields)
	return operand{kind: kindStruct, def: def, val: func(fr *frame) Value {
		return Value{kind: kindStruct, def: def, elems: fr.slots[slot : slot+n : slot+n]}
	}}
}

// failOperand evaluates the operands before it for their errors and side
// effects, then fails: the lowering of an expression whose kinds cannot
// work. It passes for an lvalue so that an assignment to it fails the same
// way.
func failOperand(pos Pos, msg string, before ...operand) operand {
	run := func(fr *frame) {
		for _, o := range before {
			o.val(fr)
		}
		fr.fail(pos, "%s", msg)
	}
	o := scalarOperand(func(fr *frame) num { run(fr); return num{} })
	o.addr = func(fr *frame) *num { run(fr); return &fr.sink }
	return o
}

// notNumeric is failOperand for a non-scalar operand bad where a number is
// needed.
func notNumeric(pos Pos, bad operand, before ...operand) operand {
	return failOperand(pos, "expected a numeric value, got "+bad.kind.String(), before...)
}

// subscript is one [expr] of an index chain; pos is its bracket.
type subscript struct {
	idx scalarFn
	pos Pos
}

// offset folds the subscripts into a row-major offset over the leading
// dimensions of a, checking each against its extent as it goes.
func (fr *frame) offset(a *array, subs []subscript) (int, bool) {
	off := 0
	for k, s := range subs {
		i, d := s.idx(fr).int(), a.dims[k]
		if i < 0 || i >= int64(d) {
			fr.fail(s.pos, "index %d out of range [0,%d)", i, d)
			return 0, false
		}
		off = off*d + int(i)
	}
	return off, true
}

// indexOperand is arr[subs...] on array parameter arr of the given rank:
// an element when every dimension is subscripted, else the sub-array.
func indexOperand(arr, rank int, subs []subscript) operand {
	if len(subs) == rank {
		o := cellOperand(func(fr *frame) *num {
			a := &fr.arrays[arr]
			off, ok := fr.offset(a, subs)
			if !ok {
				return &fr.sink
			}
			return &a.elems[off]
		})
		o.elem = true
		return o
	}
	return operand{kind: kindArray, val: func(fr *frame) Value {
		a := &fr.arrays[arr]
		off, ok := fr.offset(a, subs)
		if !ok {
			return Value{kind: kindArray}
		}
		rest := a.dims[len(subs):]
		stride := 1
		for _, d := range rest {
			stride *= d
		}
		return Value{kind: kindArray, dims: rest, elems: a.elems[off*stride : (off+1)*stride]}
	}}
}

// refOperand is &o.
func refOperand(o operand) operand {
	val := func(fr *frame) Value {
		v := o.val(fr)
		v.ref = true
		return v
	}
	if o.addr != nil {
		val = func(fr *frame) Value { return Value{kind: kindInt, ref: true, cell: o.addr(fr)} }
	}
	return operand{kind: kindRef, val: val}
}

// callOperand is a host-function call whose arguments go in the frame's
// scratch at base. The function is looked up per call: hosts may be
// registered after the model is compiled.
func callOperand(pos Pos, name string, args []operand, base int) operand {
	return scalarOperand(func(fr *frame) num {
		fn, ok := fr.hosts[name]
		if !ok {
			fr.fail(pos, "call to unknown function %q (register it as a host function)", name)
			return num{}
		}
		vals := fr.args[base : base+len(args) : base+len(args)]
		for i, a := range args {
			vals[i] = a.val(fr)
		}
		if fr.err != nil {
			return num{}
		}
		v, err := fn(pos, vals)
		if err == nil {
			_, err = v.asInt(pos)
		}
		if err != nil {
			fr.err = err
			return num{}
		}
		return v.num
	})
}

// negOperand is -x.
func negOperand(x scalarFn) operand {
	return scalarOperand(func(fr *frame) num {
		v := x(fr)
		if v.dbl {
			return dblNum(-v.f)
		}
		return intNum(-v.i)
	})
}

// logicOperand is x && y (and) or x || y, short-circuiting.
func logicOperand(and bool, x, y scalarFn) operand {
	return scalarOperand(func(fr *frame) num {
		if l := x(fr).int() != 0; l != and {
			return boolNum(l)
		}
		return boolNum(y(fr).int() != 0)
	})
}

// binaryOperand is x op y. realDiv makes / produce the real quotient even
// between ints: the published models write percentages like (100/n), which
// C integer semantics would collapse to 0 for n > 100 — the mpC runtime the
// paper builds on evaluates them as doubles — so a %% percentage is
// compiled in that mode.
func binaryOperand(pos Pos, op TokKind, x, y scalarFn, realDiv bool) operand {
	if realDiv && op == TokSlash {
		return scalarOperand(func(fr *frame) num {
			a, b := x(fr).float(), y(fr).float()
			if b == 0 {
				fr.fail(pos, "division by zero")
				return num{}
			}
			return dblNum(a / b)
		})
	}
	return scalarOperand(func(fr *frame) num { return fr.binop(pos, op, x(fr), y(fr)) })
}

// binop applies a C-semantics binary operator.
func (fr *frame) binop(pos Pos, op TokKind, a, b num) num {
	if a.dbl || b.dbl {
		x, y := a.float(), b.float()
		switch op {
		case TokPlus:
			return dblNum(x + y)
		case TokMinus:
			return dblNum(x - y)
		case TokStar:
			return dblNum(x * y)
		case TokSlash:
			if y == 0 {
				fr.fail(pos, "division by zero")
				return num{}
			}
			return dblNum(x / y)
		case TokPercent:
			fr.fail(pos, "%% requires integer operands")
			return num{}
		case TokEq:
			return boolNum(x == y)
		case TokNe:
			return boolNum(x != y)
		case TokLt:
			return boolNum(x < y)
		case TokGt:
			return boolNum(x > y)
		case TokLe:
			return boolNum(x <= y)
		case TokGe:
			return boolNum(x >= y)
		}
	} else {
		x, y := a.i, b.i
		switch op {
		case TokPlus:
			return intNum(x + y)
		case TokMinus:
			return intNum(x - y)
		case TokStar:
			return intNum(x * y)
		case TokSlash:
			if y == 0 {
				fr.fail(pos, "division by zero")
				return num{}
			}
			return intNum(x / y)
		case TokPercent:
			if y == 0 {
				fr.fail(pos, "modulo by zero")
				return num{}
			}
			return intNum(x % y)
		case TokEq:
			return boolNum(x == y)
		case TokNe:
			return boolNum(x != y)
		case TokLt:
			return boolNum(x < y)
		case TokGt:
			return boolNum(x > y)
		case TokLe:
			return boolNum(x <= y)
		case TokGe:
			return boolNum(x >= y)
		}
	}
	fr.fail(pos, "invalid binary operator %s", op)
	return num{}
}

// assignOperand is dst = src, dst += src or dst -= src. The destination
// resolves before the source evaluates. A struct assignment copies the
// fields, so structs keep value semantics.
func assignOperand(pos Pos, op TokKind, dst, src operand) operand {
	mismatch := func(format string, args ...any) operand {
		return failOperand(pos, fmt.Sprintf(format, args...), dst, src)
	}
	if op != TokAssign {
		if dst.kind != kindInt {
			return notNumeric(pos, dst, dst, src)
		}
		if src.kind != kindInt {
			return notNumeric(pos, src, dst, src)
		}
		if op == TokPlusEq {
			op = TokPlus
		} else {
			op = TokMinus
		}
		return scalarOperand(func(fr *frame) num {
			p := dst.addr(fr)
			v := src.num(fr)
			*p = fr.binop(pos, op, *p, v)
			return *p
		})
	}
	if dst.kind == kindStruct {
		if src.kind != kindStruct {
			return mismatch("assigning non-struct to struct variable")
		}
		if src.def != dst.def {
			return mismatch("assigning %s to %s", src.def.Name, dst.def.Name)
		}
		return scalarOperand(func(fr *frame) num {
			copy(dst.val(fr).elems, src.val(fr).elems)
			return num{}
		})
	}
	switch src.kind {
	case kindInt:
		return scalarOperand(func(fr *frame) num {
			p := dst.addr(fr)
			*p = src.num(fr)
			return *p
		})
	case kindStruct:
		return mismatch("assigning struct to non-struct variable")
	}
	return mismatch("cannot assign %s value", src.kind)
}

// incDecOperand is x++ or x-- (postfix: the value is the old one).
func incDecOperand(pos Pos, op TokKind, x operand) operand {
	if x.kind != kindInt {
		return notNumeric(pos, x, x)
	}
	if op == TokInc {
		op = TokPlus
	} else {
		op = TokMinus
	}
	return scalarOperand(func(fr *frame) num {
		p := x.addr(fr)
		old := *p
		*p = fr.binop(pos, op, old, intNum(1))
		return old
	})
}

// Lowered scheme statements. walkScheme interprets these; the expressions
// inside them are closures.
type cstmt any

type cblock struct{ stmts []cstmt }

// cdecl zeroes the declared variables' slots [lo, hi) and runs the
// initialisers.
type cdecl struct {
	lo, hi int
	zero   num
	inits  []scalarFn
}

type cexpr struct{ run scalarFn }

type cif struct {
	cond      scalarFn
	then, els cstmt // els may be nil
}

type cloop struct {
	par        bool
	init, post cstmt    // may be nil
	cond       scalarFn // nil: always true
	body       cstmt
	pos        Pos
}

type caction struct {
	pct  scalarFn
	a, b []scalarFn // b is nil for a computation
	pos  Pos
}
