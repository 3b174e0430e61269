package pmdl

import (
	"fmt"

	"repro/internal/sched"
)

// Model is a compiled performance model: the parsed source plus the host
// functions its scheme may call. It corresponds to the set of functions the
// paper's compiler generates from a model description (the HMPI_Model
// handle). Nothing writes to a Model once ParseModel has returned it, so
// one value may be instantiated from any number of goroutines at once.
type Model struct {
	File   *File
	Source string
	hosts  map[string]HostFunc
}

// ParseModel compiles model source text. The builtin host function
// GetProcessor (used by the paper's matrix-multiplication model to locate
// the owner of a pivot block) is pre-registered.
func ParseModel(src string) (*Model, error) {
	f, err := Parse(src)
	if err != nil {
		return nil, err
	}
	if err := Check(f); err != nil {
		return nil, err
	}
	m := &Model{File: f, Source: src, hosts: make(map[string]HostFunc)}
	m.registerHost("GetProcessor", getProcessorBuiltin)
	return m, nil
}

// MustParseModel is ParseModel for known-good embedded sources.
func MustParseModel(src string) *Model {
	m, err := ParseModel(src)
	if err != nil {
		panic(err)
	}
	return m
}

// Name returns the algorithm name.
func (m *Model) Name() string { return m.File.Algorithm.Name }

// registerHost makes fn callable from the scheme under the given name.
func (m *Model) registerHost(name string, fn HostFunc) { m.hosts[name] = fn }

// Instance is a performance model bound to actual parameters: the total
// number of abstract processors, the computation volume of each, the
// communication volume between each pair, and the parent — everything
// HMPI_Group_create and HMPI_Timeof consume.
type Instance struct {
	Model *Model
	// Dims are the coordinate ranges; NumProcs is their product.
	Dims     []int
	NumProcs int
	// CompVolume[p] is the computation volume of abstract processor p in
	// benchmark units (node declaration).
	CompVolume []float64
	// CommVolume[src][dst] is the total volume in bytes transferred from
	// src to dst during one execution of the algorithm (link
	// declaration).
	CommVolume [][]float64
	// Parent is the abstract index of the parent processor.
	Parent int

	paramEnv *env
	it       *interp
}

// Instantiate binds actual parameters (in declaration order) and evaluates
// the node, link and parent sections. Accepted Go argument types: int,
// float64, []int, [][]int, [][][]int, [][][][]int and []float64; array
// extents must match the declared dimension expressions.
func (m *Model) Instantiate(args ...any) (*Instance, error) {
	alg := m.File.Algorithm
	if len(args) != len(alg.Params) {
		return nil, fmt.Errorf("pmdl: model %s takes %d parameters, got %d", alg.Name, len(alg.Params), len(args))
	}
	structs := make(map[string]*StructDef, len(m.File.Typedefs))
	for _, td := range m.File.Typedefs {
		structs[td.Name] = td
	}
	it := &interp{structs: structs, hosts: m.hosts}
	paramEnv := newEnv(nil)

	for i, prm := range alg.Params {
		v, err := bindArg(it, paramEnv, prm, args[i])
		if err != nil {
			return nil, err
		}
		if _, err := paramEnv.define(prm.Pos, prm.Name, v); err != nil {
			return nil, err
		}
	}

	inst := &Instance{Model: m, paramEnv: paramEnv, it: it}

	// Coordinate space.
	for _, cv := range alg.Coords {
		sv, err := it.eval(cv.Size, paramEnv)
		if err != nil {
			return nil, err
		}
		n, err := asInt(cv.Pos, sv)
		if err != nil {
			return nil, err
		}
		if n <= 0 {
			return nil, errf(cv.Pos, "coordinate %s has non-positive range %d", cv.Name, n)
		}
		inst.Dims = append(inst.Dims, int(n))
	}
	inst.NumProcs = 1
	for _, d := range inst.Dims {
		inst.NumProcs *= d
	}

	inst.CompVolume = make([]float64, inst.NumProcs)
	inst.CommVolume = make([][]float64, inst.NumProcs)
	for i := range inst.CommVolume {
		inst.CommVolume[i] = make([]float64, inst.NumProcs)
	}

	if err := inst.evalNode(); err != nil {
		return nil, err
	}
	if err := inst.evalLink(); err != nil {
		return nil, err
	}
	if err := inst.evalParent(); err != nil {
		return nil, err
	}
	return inst, nil
}

// bindArg converts one Go argument to a model value, checking the declared
// dimensions.
func bindArg(it *interp, env *env, prm Param, arg any) (Value, error) {
	wantDims := make([]int, len(prm.Dims))
	for i, de := range prm.Dims {
		v, err := it.eval(de, env)
		if err != nil {
			return nil, err
		}
		n, err := asInt(prm.Pos, v)
		if err != nil {
			return nil, err
		}
		if n <= 0 {
			return nil, errf(prm.Pos, "parameter %s: dimension %d evaluates to %d", prm.Name, i, n)
		}
		wantDims[i] = int(n)
	}
	if len(wantDims) == 0 {
		switch x := arg.(type) {
		case int:
			if prm.Type.Kind == TypeDouble {
				return DoubleVal(x), nil
			}
			return IntVal(x), nil
		case int64:
			if prm.Type.Kind == TypeDouble {
				return DoubleVal(x), nil
			}
			return IntVal(x), nil
		case float64:
			if prm.Type.Kind == TypeInt {
				return nil, fmt.Errorf("pmdl: parameter %s is int, got float64", prm.Name)
			}
			return DoubleVal(x), nil
		default:
			return nil, fmt.Errorf("pmdl: parameter %s: unsupported scalar type %T", prm.Name, arg)
		}
	}
	flat, gotDims, isFloat, err := flatten(arg)
	if err != nil {
		return nil, fmt.Errorf("pmdl: parameter %s: %w", prm.Name, err)
	}
	if len(gotDims) != len(wantDims) {
		return nil, fmt.Errorf("pmdl: parameter %s: got %d dimensions, want %d", prm.Name, len(gotDims), len(wantDims))
	}
	for i := range wantDims {
		if gotDims[i] != wantDims[i] {
			return nil, fmt.Errorf("pmdl: parameter %s: dimension %d is %d, want %d", prm.Name, i, gotDims[i], wantDims[i])
		}
	}
	a := newArray(wantDims)
	for i, f := range flat {
		if isFloat || prm.Type.Kind == TypeDouble {
			a.Elems[i].V = DoubleVal(f)
		} else {
			a.Elems[i].V = IntVal(int64(f))
		}
	}
	return a, nil
}

// flatten turns nested int/float64 slices into a flat float64 slice plus
// dimensions, verifying rectangularity.
func flatten(arg any) ([]float64, []int, bool, error) {
	switch x := arg.(type) {
	case []int:
		out := make([]float64, len(x))
		for i, v := range x {
			out[i] = float64(v)
		}
		return out, []int{len(x)}, false, nil
	case []float64:
		return append([]float64(nil), x...), []int{len(x)}, true, nil
	case [][]int:
		return flattenNested(len(x), func(i int) any { return x[i] })
	case [][][]int:
		return flattenNested(len(x), func(i int) any { return x[i] })
	case [][][][]int:
		return flattenNested(len(x), func(i int) any { return x[i] })
	default:
		return nil, nil, false, fmt.Errorf("unsupported array type %T", arg)
	}
}

func flattenNested(n int, at func(int) any) ([]float64, []int, bool, error) {
	if n == 0 {
		return nil, nil, false, fmt.Errorf("empty array")
	}
	var flat []float64
	var innerDims []int
	isFloat := false
	for i := 0; i < n; i++ {
		f, dims, fl, err := flatten(at(i))
		if err != nil {
			return nil, nil, false, err
		}
		if i == 0 {
			innerDims = dims
			isFloat = fl
		} else if !equalDims(dims, innerDims) {
			return nil, nil, false, fmt.Errorf("ragged array at index %d", i)
		}
		flat = append(flat, f...)
	}
	return flat, append([]int{n}, innerDims...), isFloat, nil
}

func equalDims(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// coordEnv returns an environment binding the coordinate variables to the
// tuple with flat index idx (row-major: first coordinate slowest).
func (inst *Instance) coordEnv(idx int) *env {
	e := newEnv(inst.paramEnv)
	rem := idx
	stride := inst.NumProcs
	for k, cv := range inst.Model.File.Algorithm.Coords {
		stride /= inst.Dims[k]
		c := rem / stride
		rem %= stride
		e.vars[cv.Name] = &Cell{V: IntVal(int64(c))}
	}
	return e
}

// flatIndex converts a coordinate tuple to the abstract processor index.
func (inst *Instance) flatIndex(pos Pos, coords []int64) (int, error) {
	if len(coords) != len(inst.Dims) {
		return 0, errf(pos, "expected %d coordinates, got %d", len(inst.Dims), len(coords))
	}
	idx := 0
	for k, c := range coords {
		if c < 0 || int(c) >= inst.Dims[k] {
			return 0, errf(pos, "coordinate %d out of range [0,%d)", c, inst.Dims[k])
		}
		idx = idx*inst.Dims[k] + int(c)
	}
	return idx, nil
}

// CoordsOf returns the coordinate tuple of an abstract processor index.
func (inst *Instance) CoordsOf(idx int) []int {
	out := make([]int, len(inst.Dims))
	rem := idx
	stride := inst.NumProcs
	for k := range inst.Dims {
		stride /= inst.Dims[k]
		out[k] = rem / stride
		rem %= stride
	}
	return out
}

// evalNode fills CompVolume: for each abstract processor the first node
// clause whose guard holds defines its volume.
func (inst *Instance) evalNode() error {
	for p := 0; p < inst.NumProcs; p++ {
		e := inst.coordEnv(p)
		for _, cl := range inst.Model.File.Algorithm.Nodes {
			ok, err := inst.guardHolds(cl.Guard, e)
			if err != nil {
				return err
			}
			if !ok {
				continue
			}
			v, err := inst.it.eval(cl.Volume, e)
			if err != nil {
				return err
			}
			vol, err := asDouble(cl.Pos, v)
			if err != nil {
				return err
			}
			if vol < 0 {
				return errf(cl.Pos, "negative computation volume %g for processor %d", vol, p)
			}
			inst.CompVolume[p] = vol
			break
		}
	}
	return nil
}

// evalLink fills CommVolume. Each clause instance defines the volume for
// one ordered pair; conflicting definitions for the same pair are an
// error in the model.
func (inst *Instance) evalLink() error {
	alg := inst.Model.File.Algorithm
	if alg.Link == nil {
		return nil
	}
	// Dimensions of the link iteration variables.
	varDims := make([]int, len(alg.Link.Vars))
	for i, lv := range alg.Link.Vars {
		v, err := inst.it.eval(lv.Size, inst.paramEnv)
		if err != nil {
			return err
		}
		n, err := asInt(lv.Pos, v)
		if err != nil {
			return err
		}
		if n <= 0 {
			return errf(lv.Pos, "link variable %s has non-positive range %d", lv.Name, n)
		}
		varDims[i] = int(n)
	}
	total := 1
	for _, d := range varDims {
		total *= d
	}
	defined := make([][]bool, inst.NumProcs)
	for i := range defined {
		defined[i] = make([]bool, inst.NumProcs)
	}
	for p := 0; p < inst.NumProcs; p++ {
		base := inst.coordEnv(p)
		for vi := 0; vi < total; vi++ {
			e := newEnv(base)
			rem := vi
			stride := total
			for k, lv := range alg.Link.Vars {
				stride /= varDims[k]
				e.vars[lv.Name] = &Cell{V: IntVal(int64(rem / stride))}
				rem %= stride
			}
			for _, cl := range alg.Link.Clauses {
				ok, err := inst.guardHolds(cl.Guard, e)
				if err != nil {
					return err
				}
				if !ok {
					continue
				}
				vol, err := inst.evalVolume(cl.Pos, cl.Volume, e)
				if err != nil {
					return err
				}
				src, err := inst.evalCoords(cl.Pos, cl.Src, e)
				if err != nil {
					return err
				}
				dst, err := inst.evalCoords(cl.Pos, cl.Dst, e)
				if err != nil {
					return err
				}
				if src == dst {
					continue // self transfers carry no cost
				}
				if defined[src][dst] && inst.CommVolume[src][dst] != vol {
					return errf(cl.Pos, "conflicting link volumes for pair %d->%d: %g and %g",
						src, dst, inst.CommVolume[src][dst], vol)
				}
				inst.CommVolume[src][dst] = vol
				defined[src][dst] = true
			}
		}
	}
	return nil
}

func (inst *Instance) evalParent() error {
	alg := inst.Model.File.Algorithm
	if alg.Parent == nil {
		inst.Parent = 0
		return nil
	}
	idx, err := inst.evalCoords(alg.Pos, alg.Parent, inst.paramEnv)
	if err != nil {
		return err
	}
	inst.Parent = idx
	return nil
}

func (inst *Instance) guardHolds(guard Expr, e *env) (bool, error) {
	v, err := inst.it.eval(guard, e)
	if err != nil {
		return false, err
	}
	return isTruthy(exprPos(guard), v)
}

func (inst *Instance) evalVolume(pos Pos, expr Expr, e *env) (float64, error) {
	v, err := inst.it.eval(expr, e)
	if err != nil {
		return 0, err
	}
	vol, err := asDouble(pos, v)
	if err != nil {
		return 0, err
	}
	if vol < 0 {
		return 0, errf(pos, "negative communication volume %g", vol)
	}
	return vol, nil
}

func (inst *Instance) evalCoords(pos Pos, exprs []Expr, e *env) (int, error) {
	coords := make([]int64, len(exprs))
	for i, ex := range exprs {
		v, err := inst.it.eval(ex, e)
		if err != nil {
			return 0, err
		}
		c, err := asInt(pos, v)
		if err != nil {
			return 0, err
		}
		coords[i] = c
	}
	return inst.flatIndex(pos, coords)
}

// TotalCompVolume returns the sum of all per-processor computation
// volumes.
func (inst *Instance) TotalCompVolume() float64 {
	var sum float64
	for _, v := range inst.CompVolume {
		sum += v
	}
	return sum
}

// TotalCommVolume returns the sum of all pairwise communication volumes in
// bytes.
func (inst *Instance) TotalCommVolume() float64 {
	var sum float64
	for _, row := range inst.CommVolume {
		for _, v := range row {
			sum += v
		}
	}
	return sum
}

// getProcessorBuiltin implements the paper's GetProcessor helper:
// GetProcessor(row, col, m, h, w, &out) writes into out (a struct with
// fields I and J) the grid coordinates of the processor whose rectangle
// within a generalised block contains position (row, col). h is the
// four-dimensional height parameter (h[i][j][i][j] is the height of
// P_ij's rectangle) and w the width vector of the distribution.
func getProcessorBuiltin(pos Pos, args []Value) (Value, error) {
	if len(args) != 6 {
		return nil, errf(pos, "GetProcessor takes 6 arguments, got %d", len(args))
	}
	row, err := asInt(pos, args[0])
	if err != nil {
		return nil, err
	}
	col, err := asInt(pos, args[1])
	if err != nil {
		return nil, err
	}
	m, err := asInt(pos, args[2])
	if err != nil {
		return nil, err
	}
	h, ok := args[3].(*ArrayVal)
	if !ok || len(h.Dims) != 4 {
		return nil, errf(pos, "GetProcessor: h must be a 4-dimensional array")
	}
	w, ok := args[4].(*ArrayVal)
	if !ok || len(w.Dims) != 1 {
		return nil, errf(pos, "GetProcessor: w must be a 1-dimensional array")
	}
	ref, ok := args[5].(RefVal)
	if !ok {
		return nil, errf(pos, "GetProcessor: last argument must be &struct")
	}
	out, ok := ref.Cell.V.(*StructVal)
	if !ok {
		return nil, errf(pos, "GetProcessor: output must be a struct with fields I and J")
	}
	hAt := func(i, j, k, l int64) (int64, error) {
		mm := int64(m)
		idx := ((i*mm+j)*mm+k)*mm + l
		if idx < 0 || int(idx) >= len(h.Elems) {
			return 0, errf(pos, "GetProcessor: h index out of range")
		}
		return asInt(pos, h.Elems[idx].V)
	}
	// Locate the column slice containing col.
	var J int64 = -1
	acc := int64(0)
	for j := int64(0); j < m; j++ {
		wj, err := asInt(pos, w.Elems[j].V)
		if err != nil {
			return nil, err
		}
		if col < acc+wj {
			J = j
			break
		}
		acc += wj
	}
	if J < 0 {
		return nil, errf(pos, "GetProcessor: column %d outside generalised block", col)
	}
	// Locate the row slice within column J.
	var I int64 = -1
	acc = 0
	for i := int64(0); i < m; i++ {
		hij, err := hAt(i, J, i, J)
		if err != nil {
			return nil, err
		}
		if row < acc+hij {
			I = i
			break
		}
		acc += hij
	}
	if I < 0 {
		return nil, errf(pos, "GetProcessor: row %d outside generalised block", row)
	}
	iCell, ok1 := out.Fields["I"]
	jCell, ok2 := out.Fields["J"]
	if !ok1 || !ok2 {
		return nil, errf(pos, "GetProcessor: output struct needs fields I and J")
	}
	iCell.V = IntVal(I)
	jCell.V = IntVal(J)
	return IntVal(0), nil
}

// BuildDAG interprets the scheme declaration into a task graph. Par loops
// fork: every activity generated by an iteration starts at the loop entry;
// the loop joins all iterations at its end. Sequential composition chains.
func (inst *Instance) BuildDAG() (*sched.DAG, error) {
	b := &dagBuilder{inst: inst, d: &sched.DAG{}}
	if _, err := walkScheme[[]int](inst, b, inst.Model.File.Algorithm.Scheme, newEnv(inst.paramEnv), nil); err != nil {
		return nil, err
	}
	return b.d, nil
}

// dagBuilder is the scheme sink that threads dependency frontiers: the
// state is the set of tasks the next activity must wait for.
type dagBuilder struct {
	inst *Instance
	d    *sched.DAG
}

func (b *dagBuilder) action(_ Pos, src, dst int, pct float64, in []int) ([]int, error) {
	if dst < 0 {
		return []int{b.d.AddCompute(src, pct/100*b.inst.CompVolume[src], in)}, nil
	}
	return []int{b.d.AddTransfer(src, dst, pct/100*b.inst.CommVolume[src][dst], in)}, nil
}

func (b *dagBuilder) fork(in []int) []int { return in }

// join collapses a wide frontier into a single Nop so dependency lists
// stay small.
func (b *dagBuilder) join(acc, out []int) []int {
	acc = append(acc, out...)
	if len(acc) <= 8 {
		return acc
	}
	return []int{b.d.AddNop(acc)}
}

func (b *dagBuilder) merge(in, acc []int) []int {
	if len(acc) == 0 {
		return in
	}
	return acc
}
