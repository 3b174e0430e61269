package pmdl

// The scheme interpreter. A scheme declaration is ordinary control flow —
// blocks, declarations, expressions, ifs, seq and par loops — whose leaves
// are activities (`pct%%[coords]` computations and `pct%%[a]->[b]`
// transfers). walkScheme executes the control flow once; what the
// activities and the par structure turn into is the sink's business: a
// dependency DAG for pricing (BuildDAG) or a series-parallel trace for the
// lints (UnrollScheme).

// schemeSink receives what interpreting a scheme generates. T is the
// state threaded through sequential composition: the exit state of one
// statement is the entry state of the next.
type schemeSink[T any] interface {
	// action records one activity — a computation on src (dst == -1) or
	// a transfer src -> dst, in abstract processor indices, carrying pct
	// percent of the declared volume — entered with state in, and
	// returns the state after it.
	action(pos Pos, src, dst int, pct float64, in T) (T, error)
	// fork returns the state every iteration of a par loop starts from,
	// given the loop's entry state.
	fork(in T) T
	// join folds one par iteration's exit state into the accumulated
	// state of the iterations before it (the zero T before the first).
	// It runs once per iteration, so the sink keeps the accumulator
	// bounded as it goes rather than holding every iteration's state.
	join(acc, out T) T
	// merge returns the state after a par loop entered with in whose
	// iterations folded to acc.
	merge(in, acc T) T
}

// maxLoopIterations bounds scheme loops against runaway models.
const maxLoopIterations = 10_000_000

// walkScheme runs one statement with entry state in, returning the exit
// state. Control-flow computation (loop variables, host-function calls)
// executes sequentially during interpretation and generates nothing.
func walkScheme[T any](inst *Instance, sink schemeSink[T], s Stmt, e *env, in T) (T, error) {
	var zero T
	switch x := s.(type) {
	case *BlockStmt:
		scope := newEnv(e)
		cur := in
		for _, st := range x.Stmts {
			out, err := walkScheme(inst, sink, st, scope, cur)
			if err != nil {
				return zero, err
			}
			cur = out
		}
		return cur, nil

	case *DeclStmt:
		for i, name := range x.Names {
			var v Value
			switch x.Type.Kind {
			case TypeInt:
				v = IntVal(0)
			case TypeDouble:
				v = DoubleVal(0)
			case TypeStruct:
				def, ok := inst.it.structs[x.Type.Struct]
				if !ok {
					return zero, errf(x.Pos, "unknown struct type %q", x.Type.Struct)
				}
				v = newStruct(def)
			}
			cell, err := e.define(x.Pos, name, v)
			if err != nil {
				return zero, err
			}
			if x.Inits[i] != nil {
				iv, err := inst.it.eval(x.Inits[i], e)
				if err != nil {
					return zero, err
				}
				if _, err := inst.it.assign(x.Pos, cell, iv); err != nil {
					return zero, err
				}
			}
		}
		return in, nil

	case *ExprStmt:
		if _, err := inst.it.eval(x.X, e); err != nil {
			return zero, err
		}
		return in, nil

	case *IfStmt:
		ok, err := inst.guardHolds(x.Cond, e)
		if err != nil {
			return zero, err
		}
		if ok {
			return walkScheme(inst, sink, x.Then, e, in)
		}
		if x.Else != nil {
			return walkScheme(inst, sink, x.Else, e, in)
		}
		return in, nil

	case *LoopStmt:
		scope := newEnv(e)
		if x.Init != nil {
			if _, err := walkScheme(inst, sink, x.Init, scope, zero); err != nil {
				return zero, err
			}
		}
		// A seq loop chains its iterations through cur; a par loop
		// starts each from the fork of the entry state and folds their
		// exits into acc.
		cur, acc := in, zero
		for iter := 0; ; iter++ {
			if iter > maxLoopIterations {
				return zero, errf(x.Pos, "loop exceeded %d iterations (model bug?)", maxLoopIterations)
			}
			if x.Cond != nil {
				ok, err := inst.guardHolds(x.Cond, scope)
				if err != nil {
					return zero, err
				}
				if !ok {
					break
				}
			} else if !x.Par {
				return zero, errf(x.Pos, "for loop without condition never terminates")
			}
			if x.Par {
				out, err := walkScheme(inst, sink, x.Body, scope, sink.fork(in))
				if err != nil {
					return zero, err
				}
				acc = sink.join(acc, out)
			} else {
				out, err := walkScheme(inst, sink, x.Body, scope, cur)
				if err != nil {
					return zero, err
				}
				cur = out
			}
			if x.Post != nil {
				if _, err := walkScheme(inst, sink, x.Post, scope, zero); err != nil {
					return zero, err
				}
			}
		}
		if x.Par {
			return sink.merge(in, acc), nil
		}
		return cur, nil

	case *ActionStmt:
		// Percentages evaluate in real arithmetic: see interp.floatDiv.
		inst.it.floatDiv = true
		pctV, err := inst.it.eval(x.Percent, e)
		inst.it.floatDiv = false
		if err != nil {
			return zero, err
		}
		pct, err := asDouble(x.Pos, pctV)
		if err != nil {
			return zero, err
		}
		if pct < 0 {
			return zero, errf(x.Pos, "negative percentage %g", pct)
		}
		src, err := inst.evalCoords(x.Pos, x.A, e)
		if err != nil {
			return zero, err
		}
		dst := -1
		if x.B != nil {
			if dst, err = inst.evalCoords(x.Pos, x.B, e); err != nil {
				return zero, err
			}
		}
		return sink.action(x.Pos, src, dst, pct, in)
	}
	return zero, errf(Pos{}, "unknown statement type %T", s)
}
