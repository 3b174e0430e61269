package pmdl

import "fmt"

// The scheme interpreter. A scheme declaration is ordinary control flow —
// blocks, declarations, expressions, ifs, seq and par loops — whose leaves
// are activities (`pct%%[coords]` computations and `pct%%[a]->[b]`
// transfers), lowered by Check to the cstmt forms of compile.go. walkScheme
// executes the control flow once on one frame; what the
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

// maxLoopIterations bounds the loop iterations of one walk of a scheme,
// all loops together, against runaway models.
const maxLoopIterations = 10_000_000

// walkScheme runs one lowered statement on the frame with entry state in,
// returning the exit state. Control-flow computation (loop variables,
// host-function calls) executes sequentially during interpretation and
// generates nothing.
func walkScheme[T any](fr *frame, sink schemeSink[T], s cstmt, in T) (T, error) {
	var zero T
	switch x := s.(type) {
	case *cblock:
		cur := in
		for _, st := range x.stmts {
			out, err := walkScheme(fr, sink, st, cur)
			if err != nil {
				return zero, err
			}
			cur = out
		}
		return cur, nil

	case *cdecl:
		for i := x.lo; i < x.hi; i++ {
			fr.slots[i] = x.zero
		}
		for _, init := range x.inits {
			init(fr)
		}
		return in, fr.err

	case *cexpr:
		x.run(fr)
		return in, fr.err

	case *cif:
		ok := x.cond(fr).int() != 0
		if fr.err != nil {
			return zero, fr.err
		}
		if ok {
			return walkScheme(fr, sink, x.then, in)
		}
		if x.els != nil {
			return walkScheme(fr, sink, x.els, in)
		}
		return in, nil

	case *cloop:
		if x.init != nil {
			if _, err := walkScheme(fr, sink, x.init, zero); err != nil {
				return zero, err
			}
		}
		// A seq loop chains its iterations through cur; a par loop
		// starts each from the fork of the entry state and folds their
		// exits into acc.
		cur, acc := in, zero
		for ; ; fr.iters++ {
			if fr.iters > maxLoopIterations {
				return zero, errf(x.pos, "loop exceeded %d iterations (model bug?)", maxLoopIterations)
			}
			if x.cond != nil {
				ok := x.cond(fr).int() != 0
				if fr.err != nil {
					return zero, fr.err
				}
				if !ok {
					break
				}
			}
			if x.par {
				out, err := walkScheme(fr, sink, x.body, sink.fork(in))
				if err != nil {
					return zero, err
				}
				acc = sink.join(acc, out)
			} else {
				out, err := walkScheme(fr, sink, x.body, cur)
				if err != nil {
					return zero, err
				}
				cur = out
			}
			if x.post != nil {
				if _, err := walkScheme(fr, sink, x.post, zero); err != nil {
					return zero, err
				}
			}
		}
		if x.par {
			return sink.merge(in, acc), nil
		}
		return cur, nil

	case *caction:
		pct := x.pct(fr).float()
		if fr.err == nil && pct < 0 {
			fr.fail(x.pos, "negative percentage %g", pct)
		}
		src, dst := fr.procIndex(x.pos, x.a), -1
		if x.b != nil {
			dst = fr.procIndex(x.pos, x.b)
		}
		if fr.err != nil {
			return zero, fr.err
		}
		return sink.action(x.pos, src, dst, pct, in)
	}
	panic(fmt.Sprintf("pmdl: unknown lowered statement %T", s))
}
