package pmdl

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/sched"
)

// Model is a compiled performance model: the parsed source, the program it
// lowers to, and the host functions its scheme may call. It corresponds to
// the set of functions the paper's compiler generates from a model
// description (the HMPI_Model handle). Nothing writes to a Model once
// ParseModel has returned it, so one value may be instantiated from any
// number of goroutines at once.
type Model struct {
	File   *File
	Source string
	prog   *program
	hosts  map[string]HostFunc
	srcSum [sha256.Size]byte // of Source
}

// ParseModel compiles model source text: parse, check, lower. The builtin
// host function GetProcessor (used by the paper's matrix-multiplication
// model to locate the owner of a pivot block) is pre-registered.
func ParseModel(src string) (*Model, error) {
	f, err := Parse(src)
	if err != nil {
		return nil, err
	}
	prog, err := compile(f)
	if err != nil {
		return nil, err
	}
	hosts := map[string]HostFunc{"GetProcessor": getProcessorBuiltin}
	return &Model{File: f, Source: src, prog: prog, hosts: hosts, srcSum: sha256.Sum256([]byte(src))}, nil
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

// Instance is a performance model bound to actual parameters: the total
// number of abstract processors, the computation volume of each, the
// communication volume between each pair, and the parent — everything
// HMPI_Group_create and HMPI_Timeof consume. Nothing writes to an Instance
// once Instantiate has returned it: BuildDAG and unrollScheme each run the
// scheme on a frame of their own, so they may be called from any number of
// goroutines at once.
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
	// Digest identifies the source and the bound arguments; volumes, parent and
	// task graph are functions of the two (GetProcessor is the one host function).
	Digest [sha256.Size]byte

	params []num   // the bound scalar parameters: a scheme frame's leading slots
	arrays []array // the bound array parameters
}

// setDigest hashes the source and the arguments as bindArg flattened them.
func (inst *Instance) setDigest() {
	b := append(make([]byte, 0, 4096), inst.Model.srcSum[:]...) // on the stack
	put := func(ns ...num) {
		for _, n := range ns {
			kind, bits := byte(0), uint64(n.i)
			if n.dbl {
				kind, bits = 1, math.Float64bits(n.f)
			}
			b = binary.LittleEndian.AppendUint64(append(b, kind), bits)
		}
	}
	put(inst.params...)
	for _, a := range inst.arrays {
		put(intNum(int64(len(a.elems)))) // delimits the run
		put(a.elems...)
	}
	inst.Digest = sha256.Sum256(b)
}

// maxProcs bounds the abstract processors of an instance: the pairwise
// volume table is quadratic in them.
const maxProcs = 1 << 12

// Instantiate binds actual parameters (in declaration order) and evaluates
// the node, link and parent sections. Accepted Go argument types: int,
// float64, []int, [][]int, [][][]int, [][][][]int and []float64; array
// extents must match the declared dimension expressions.
func (m *Model) Instantiate(args ...any) (*Instance, error) {
	alg := m.File.Algorithm
	if len(args) != len(alg.Params) {
		return nil, fmt.Errorf("pmdl: model %s takes %d parameters, got %d", alg.Name, len(alg.Params), len(args))
	}
	return m.instantiate(func(i int, _ []int) (any, error) { return args[i], nil }, 0)
}

// instantiate is Instantiate with parameter i's argument supplied by
// argOf, which is handed the parameter's evaluated dimensions. A non-zero
// maxDim bounds them (AutoInstantiate's guard against huge guesses).
func (m *Model) instantiate(argOf func(i int, dims []int) (any, error), maxDim int64) (*Instance, error) {
	alg, p := m.File.Algorithm, m.prog
	fr := p.newFrame(m.hosts, nil)
	for i, prm := range alg.Params {
		cp := p.params[i]
		dims := make([]int, len(cp.dims))
		for k, de := range cp.dims {
			n := de(fr).int()
			switch {
			case fr.err != nil:
				return nil, fr.err
			case maxDim > 0 && (n <= 0 || n > maxDim):
				return nil, errf(prm.Pos, "parameter %s: auto-instantiated dimension %d out of range", prm.Name, n)
			case n <= 0:
				return nil, errf(prm.Pos, "parameter %s: dimension %d evaluates to %d", prm.Name, k, n)
			}
			dims[k] = int(n)
		}
		arg, err := argOf(i, dims)
		if err != nil {
			return nil, err
		}
		if err := bindArg(fr, prm, cp.slot, dims, arg); err != nil {
			return nil, err
		}
	}

	inst := &Instance{Model: m, NumProcs: 1, params: fr.slots[:p.coordSlot:p.coordSlot], arrays: fr.arrays}
	inst.setDigest()
	for i, cv := range alg.Coords {
		n := p.coordSizes[i](fr).int()
		if fr.err != nil {
			return nil, fr.err
		}
		if n <= 0 {
			return nil, errf(cv.Pos, "coordinate %s has non-positive range %d", cv.Name, n)
		}
		if n > maxProcs || inst.NumProcs*int(n) > maxProcs {
			return nil, errf(cv.Pos, "more than %d abstract processors", maxProcs)
		}
		inst.Dims = append(inst.Dims, int(n))
		inst.NumProcs *= int(n)
	}
	fr.dims = inst.Dims

	inst.CompVolume = make([]float64, inst.NumProcs)
	inst.CommVolume = make([][]float64, inst.NumProcs)
	comm := make([]float64, inst.NumProcs*inst.NumProcs)
	for i := range inst.CommVolume {
		inst.CommVolume[i] = comm[i*inst.NumProcs : (i+1)*inst.NumProcs : (i+1)*inst.NumProcs]
	}

	inst.evalNode(fr)
	inst.evalLink(fr)
	if p.parent != nil && fr.err == nil {
		inst.Parent = fr.procIndex(alg.Pos, p.parent)
	}
	if fr.err != nil {
		return nil, fr.err
	}
	return inst, nil
}

// bindArg converts one Go argument to a model value of the evaluated
// dimensions and stores it in the parameter's slot.
func bindArg(fr *frame, prm Param, slot int, dims []int, arg any) error {
	if len(dims) == 0 {
		switch x := arg.(type) {
		case int:
			fr.slots[slot] = intNum(int64(x))
		case int64:
			fr.slots[slot] = intNum(x)
		case float64:
			if prm.Type.Kind == TypeInt {
				return fmt.Errorf("pmdl: parameter %s is int, got float64", prm.Name)
			}
			fr.slots[slot] = dblNum(x)
		default:
			return fmt.Errorf("pmdl: parameter %s: unsupported scalar type %T", prm.Name, arg)
		}
		if prm.Type.Kind == TypeDouble {
			fr.slots[slot] = dblNum(fr.slots[slot].float())
		}
		return nil
	}
	elems, gotDims, err := flatten(nil, arg, prm.Type.Kind == TypeDouble)
	if err != nil {
		return fmt.Errorf("pmdl: parameter %s: %w", prm.Name, err)
	}
	if len(gotDims) != len(dims) {
		return fmt.Errorf("pmdl: parameter %s: got %d dimensions, want %d", prm.Name, len(gotDims), len(dims))
	}
	for i := range dims {
		if gotDims[i] != dims[i] {
			return fmt.Errorf("pmdl: parameter %s: dimension %d is %d, want %d", prm.Name, i, gotDims[i], dims[i])
		}
	}
	fr.arrays[slot] = array{dims: dims, elems: elems}
	return nil
}

// flatten appends the elements of nested int/float64 slices to dst in
// row-major order (ints as doubles when dbl) and returns the dimensions,
// verifying rectangularity.
func flatten(dst []num, arg any, dbl bool) ([]num, []int, error) {
	nested := func(n int, at func(int) any) ([]num, []int, error) {
		if n == 0 {
			return nil, nil, fmt.Errorf("empty array")
		}
		var inner []int
		start := len(dst)
		for i := 0; i < n; i++ {
			var dims []int
			var err error
			if dst, dims, err = flatten(dst, at(i), dbl); err != nil {
				return nil, nil, err
			}
			if i == 0 { // the other n-1 rows are this long, or the array is ragged
				inner, dst = dims, slices.Grow(dst, min((n-1)*(len(dst)-start), 1<<16))
			} else if !slices.Equal(dims, inner) {
				return nil, nil, fmt.Errorf("ragged array at index %d", i)
			}
		}
		return dst, append([]int{n}, inner...), nil
	}
	switch x := arg.(type) {
	case []int:
		for _, v := range x {
			if dbl {
				dst = append(dst, dblNum(float64(v)))
			} else {
				dst = append(dst, intNum(int64(v)))
			}
		}
		return dst, []int{len(x)}, nil
	case []float64:
		for _, v := range x {
			dst = append(dst, dblNum(v))
		}
		return dst, []int{len(x)}, nil
	case [][]int:
		return nested(len(x), func(i int) any { return x[i] })
	case [][][]int:
		return nested(len(x), func(i int) any { return x[i] })
	case [][][][]int:
		return nested(len(x), func(i int) any { return x[i] })
	}
	return nil, nil, fmt.Errorf("unsupported array type %T", arg)
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
func (inst *Instance) evalNode(fr *frame) {
	p := inst.Model.prog
	for proc := 0; proc < inst.NumProcs && fr.err == nil; proc++ {
		fr.setTuple(p.coordSlot, proc, inst.NumProcs, inst.Dims)
		for _, cl := range p.nodes {
			if cl.guard(fr).int() == 0 || fr.err != nil {
				continue
			}
			vol := cl.volume(fr).float()
			if fr.err == nil && vol < 0 {
				fr.fail(cl.pos, "negative computation volume %g for processor %d", vol, proc)
			}
			inst.CompVolume[proc] = vol
			break
		}
	}
}

// evalLink fills CommVolume. Each clause instance defines the volume for
// one ordered pair; conflicting definitions for the same pair are an
// error in the model.
func (inst *Instance) evalLink(fr *frame) {
	p := inst.Model.prog
	// Ranges of the link iteration variables.
	varDims := make([]int, len(p.linkSizes))
	total := 1
	for i, size := range p.linkSizes {
		n := size(fr).int()
		if fr.err != nil {
			return
		}
		if lv := inst.Model.File.Algorithm.Link.Vars[i]; n <= 0 {
			fr.fail(lv.Pos, "link variable %s has non-positive range %d", lv.Name, n)
			return
		}
		varDims[i] = int(n)
		total *= int(n)
	}
	if len(p.links) == 0 {
		return
	}
	defined := make([]bool, inst.NumProcs*inst.NumProcs)
	for proc := 0; proc < inst.NumProcs; proc++ {
		fr.setTuple(p.coordSlot, proc, inst.NumProcs, inst.Dims)
		for vi := 0; vi < total; vi++ {
			fr.setTuple(p.linkSlot, vi, total, varDims)
			for _, cl := range p.links {
				holds := cl.guard(fr).int() != 0
				if fr.err != nil {
					return
				}
				if !holds {
					continue
				}
				vol := cl.volume(fr).float()
				if fr.err == nil && vol < 0 {
					fr.fail(cl.pos, "negative communication volume %g", vol)
				}
				src := fr.procIndex(cl.pos, cl.src)
				dst := fr.procIndex(cl.pos, cl.dst)
				if fr.err != nil {
					return
				}
				if src == dst {
					continue // self transfers carry no cost
				}
				if defined[src*inst.NumProcs+dst] && inst.CommVolume[src][dst] != vol {
					fr.fail(cl.pos, "conflicting link volumes for pair %d->%d: %g and %g",
						src, dst, inst.CommVolume[src][dst], vol)
				}
				inst.CommVolume[src][dst] = vol
				defined[src*inst.NumProcs+dst] = true
			}
		}
	}
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
		return Value{}, errf(pos, "GetProcessor takes 6 arguments, got %d", len(args))
	}
	var row, col, m int64
	for i, dst := range []*int64{&row, &col, &m} {
		var err error
		if *dst, err = args[i].asInt(pos); err != nil {
			return Value{}, err
		}
	}
	h, w, out := args[3], args[4], args[5]
	if h.ref || h.kind != kindArray || len(h.dims) != 4 {
		return Value{}, errf(pos, "GetProcessor: h must be a 4-dimensional array")
	}
	if w.ref || w.kind != kindArray || len(w.dims) != 1 {
		return Value{}, errf(pos, "GetProcessor: w must be a 1-dimensional array")
	}
	if !out.ref {
		return Value{}, errf(pos, "GetProcessor: last argument must be &struct")
	}
	if out.kind != kindStruct {
		return Value{}, errf(pos, "GetProcessor: output must be a struct with fields I and J")
	}
	// Locate the column slice containing col.
	var J int64 = -1
	acc := int64(0)
	for j := int64(0); j < m && int(j) < len(w.elems); j++ {
		wj := w.elems[j].int()
		if col < acc+wj {
			J = j
			break
		}
		acc += wj
	}
	if J < 0 {
		return Value{}, errf(pos, "GetProcessor: column %d outside generalised block", col)
	}
	// Locate the row slice within column J.
	var I int64 = -1
	acc = 0
	for i := int64(0); i < m; i++ {
		idx := ((i*m+J)*m+i)*m + J // h[i][J][i][J]
		if idx < 0 || int(idx) >= len(h.elems) {
			return Value{}, errf(pos, "GetProcessor: h index out of range")
		}
		hij := h.elems[idx].int()
		if row < acc+hij {
			I = i
			break
		}
		acc += hij
	}
	if I < 0 {
		return Value{}, errf(pos, "GetProcessor: row %d outside generalised block", row)
	}
	iCell, jCell := out.field("I"), out.field("J")
	if iCell == nil || jCell == nil {
		return Value{}, errf(pos, "GetProcessor: output struct needs fields I and J")
	}
	*iCell, *jCell = intNum(I), intNum(J)
	return scalarValue(intNum(0)), nil
}

// BuildDAG interprets the scheme declaration into a task graph. Par loops
// fork: every activity generated by an iteration starts at the loop entry;
// the loop joins all iterations at its end. Sequential composition chains.
func (inst *Instance) BuildDAG() (*sched.DAG, error) {
	b := &dagBuilder{inst: inst, d: &sched.DAG{}}
	if _, err := walkScheme[[]int](inst.schemeFrame(), b, inst.Model.prog.scheme, nil); err != nil {
		return nil, err
	}
	return b.d, nil
}

// schemeFrame returns a fresh frame with the instance's parameters bound.
func (inst *Instance) schemeFrame() *frame {
	p := inst.Model.prog
	fr := p.newFrame(inst.Model.hosts, inst.Dims)
	copy(fr.slots, inst.params)
	copy(fr.arrays, inst.arrays)
	if p.writes {
		for i := range fr.arrays {
			fr.arrays[i].elems = slices.Clone(fr.arrays[i].elems)
		}
	}
	return fr
}

// dagBuilder is the scheme sink that threads dependency frontiers: the
// state is the set of tasks the next activity must wait for.
type dagBuilder struct {
	inst  *Instance
	d     *sched.DAG
	arena []int // frontiers are carved from it
}

// take carves a frontier of n tasks from the arena. Its capacity is n, so
// an append past it copies rather than overwriting the next frontier.
func (b *dagBuilder) take(n int) []int {
	if len(b.arena) < n {
		b.arena = make([]int, 1024)
	}
	out := b.arena[:n:n]
	b.arena = b.arena[n:]
	return out
}

func (b *dagBuilder) action(_ Pos, src, dst int, pct float64, in []int) ([]int, error) {
	out := b.take(1)
	if dst < 0 {
		out[0] = b.d.AddCompute(src, pct/100*b.inst.CompVolume[src], in)
	} else {
		out[0] = b.d.AddTransfer(src, dst, pct/100*b.inst.CommVolume[src][dst], in)
	}
	return out, nil
}

func (b *dagBuilder) fork(in []int) []int { return in }

// join collapses a wide frontier into a single Nop so dependency lists
// stay small. A frontier therefore never holds more than 8 tasks, and the
// buffer a par loop accumulates into holds 9: eight tasks plus the next
// one-task frontier, the usual fold, collapse without regrowing it.
func (b *dagBuilder) join(acc, out []int) []int {
	if len(out) == 0 {
		return acc
	}
	if acc == nil {
		acc = b.take(9)[:0]
	}
	acc = append(acc, out...)
	if len(acc) > 8 {
		acc = append(acc[:0], b.d.AddNop(acc))
	}
	return acc
}

func (b *dagBuilder) merge(in, acc []int) []int {
	if len(acc) == 0 {
		return in
	}
	return acc
}
