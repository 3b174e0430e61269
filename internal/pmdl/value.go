package pmdl

// Runtime values of a compiled model. Arithmetic follows C semantics:
// int/int division truncates, mixed int/double promotes to double,
// comparisons and logical operators produce int 0/1. A variable's type is
// the type of the value last stored in it: an int local assigned 2.5 holds
// 2.5, as in the mpC runtime's untyped evaluation the models were written
// against.

// num is an unboxed scalar, an int or a double. Frame slots, struct fields
// and array elements are all nums.
type num struct {
	i   int64   // the value when !dbl
	f   float64 // the value when dbl
	dbl bool
}

func intNum(i int64) num   { return num{i: i} }
func dblNum(f float64) num { return num{f: f, dbl: true} }

func boolNum(b bool) num {
	if b {
		return num{i: 1}
	}
	return num{}
}

func (n num) int() int64 {
	if n.dbl {
		return int64(n.f)
	}
	return n.i
}

func (n num) float() float64 {
	if n.dbl {
		return n.f
	}
	return float64(n.i)
}

// valueKind classifies a Value. Every expression's kind is known when the
// model is compiled; only int versus double is decided at run time.
type valueKind uint8

const (
	kindInt valueKind = iota // also the static kind of every scalar expression
	kindDouble
	kindStruct
	kindArray
	kindRef
)

func (k valueKind) String() string {
	return [...]string{"int", "double", "struct", "array", "ref"}[k]
}

// Value is what crosses the host-function boundary: a scalar, a struct
// local, an array parameter (or the sub-array a partial subscript selects),
// or the address of one of those, produced by unary &. Struct and array
// values alias the storage of the evaluation they come from, so a host
// function writes through them.
type Value struct {
	kind  valueKind  // of the value, or of the target when ref
	ref   bool       // produced by &
	num   num        // a scalar value
	cell  *num       // ref to a scalar: its storage
	def   *StructDef // struct type
	dims  []int      // array extents
	elems []num      // struct fields in declaration order, or array elements row-major
}

func scalarValue(n num) Value {
	if n.dbl {
		return Value{kind: kindDouble, num: n}
	}
	return Value{kind: kindInt, num: n}
}

// kindName names the value's kind: int, double, struct, array or ref.
func (v Value) kindName() string {
	if v.ref {
		return kindRef.String()
	}
	return v.kind.String()
}

// asInt is the value as a C int, for host functions.
func (v Value) asInt(pos Pos) (int64, error) {
	if v.ref || v.kind > kindDouble {
		return 0, errf(pos, "expected a numeric value, got %s", v.kindName())
	}
	return v.num.int(), nil
}

// field returns the storage of the named field of a struct value (or of
// the struct a ref points at), nil if there is none.
func (v Value) field(name string) *num {
	if v.kind != kindStruct {
		return nil
	}
	for i, f := range v.def.Fields {
		if f == name {
			return &v.elems[i]
		}
	}
	return nil
}

// HostFunc is a function the embedding Go program registers with a model;
// the scheme may call it by name (the matrix-multiplication model calls
// GetProcessor this way). Arguments arrive evaluated, & arguments as refs
// the function can write through; the result must be a scalar.
type HostFunc func(pos Pos, args []Value) (Value, error)
