// The exhaustive group-selection engine. It walks the permutation tree of
// the free slots in serial enumeration order, pruned by branch and bound,
// and visits one candidate per symmetry orbit: the Problem's Classes say
// which available ranks are interchangeable, and at each depth the engine
// offers only the lowest unused pool member of each class.
//
// Why the answer is the serial scan's: an orbit's canonical member — each
// class's members used in increasing pool order — is its lexicographically
// least one in pool-index order, which is the serial enumeration order.
// Every member of an orbit has the same time and the same bound, so the
// best-so-far at every canonical node equals the serial scan's, only
// subtrees whose bound strictly exceeds it are cut, and the first strictly
// best canonical leaf is the serial answer: the same Time and Ranks.

package mapper

import (
	"fmt"
	"math"
	"time"
)

// SearchStats details the work behind one Solve call.
type SearchStats struct {
	// Evaluations counts objective calls.
	Evaluations int64
	// CacheHits counts the leaves a symmetric candidate stood for: the
	// candidates of an evaluated orbit beyond the one scored.
	CacheHits int64
	// Pruned counts complete assignments skipped by branch-and-bound;
	// every leaf of a cut subtree is counted, so for exhaustive search
	// Evaluations + CacheHits + Pruned equals the full tree size.
	Pruned int64
	// WallTime is the elapsed time of the search.
	WallTime time.Duration
	// Memoized marks an assignment served from the selection cache's solve
	// layer (Options.MemoKey): no search ran, and the other counters are
	// those of the search that first solved the problem.
	Memoized bool
}

// fallingFactorial returns m(m-1)...(m-j+1) — the number of injective
// completions of j slots from an m-element pool.
func fallingFactorial(m, j int) int64 {
	f := int64(1)
	for i := 0; i < j; i++ {
		f *= int64(m - i)
	}
	return f
}

// exhaustiveEngine is the state of one exhaustive search.
type exhaustiveEngine struct {
	pr    Problem
	slots []int // abstract positions not pinned by Fixed, increasing
	pool  []int // Avail ranks not pinned, in Avail order
	// classOf[pi] is pool member pi's class; members[c] lists class c's
	// pool indices, increasing; next[c] counts those the candidate holds,
	// always its first next[c].
	classOf []int
	members [][]int
	next    []int

	cand     []int
	assigned []bool // indexed like cand, for LowerBound
	best     Assignment

	evals, hits, pruned int64
}

func newEngine(pr Problem) *exhaustiveEngine {
	e := &exhaustiveEngine{
		pr:       pr,
		cand:     make([]int, pr.P),
		assigned: make([]bool, pr.P),
		best:     Assignment{Time: math.Inf(1)},
	}
	fixedRank := make(map[int]bool, len(pr.Fixed))
	for a, r := range pr.Fixed {
		e.cand[a] = r
		e.assigned[a] = true
		fixedRank[r] = true
	}
	for a := 0; a < pr.P; a++ {
		if !e.assigned[a] {
			e.slots = append(e.slots, a)
		}
	}
	// Number the classes of the pool members densely, by first appearance.
	var label []int // pool index -> Classes label
	for i, r := range pr.Avail {
		if fixedRank[r] {
			continue
		}
		pi, c := len(e.pool), len(e.members)
		e.pool = append(e.pool, r)
		if pr.Classes != nil {
			label = append(label, pr.Classes[i])
			for q := 0; q < pi; q++ {
				if label[q] == label[pi] {
					c = e.classOf[q]
					break
				}
			}
		}
		if c == len(e.members) {
			e.members = append(e.members, nil)
		}
		e.classOf = append(e.classOf, c)
		e.members[c] = append(e.members[c], pi)
	}
	e.next = make([]int, len(e.members))
	return e
}

// rec extends the canonical prefix of the first depth free slots, which
// stands for weight candidates' prefixes. Choosing the (k+1)-th member of
// a class of m stands for the m-k members still unused.
func (e *exhaustiveEngine) rec(depth int, weight int64) {
	if depth == len(e.slots) {
		e.leaf(weight)
		return
	}
	slot := e.slots[depth]
	for pi, r := range e.pool {
		c := e.classOf[pi]
		k := e.next[c]
		if k == len(e.members[c]) || e.members[c][k] != pi {
			continue
		}
		w := weight * int64(len(e.members[c])-k)
		e.cand[slot] = r
		e.next[c]++
		e.assigned[slot] = true
		if e.pr.LowerBound != nil && e.pr.LowerBound(e.cand, e.assigned) > e.best.Time {
			e.pruned += w * fallingFactorial(len(e.pool)-depth-1, len(e.slots)-depth-1)
		} else {
			e.rec(depth+1, w)
		}
		e.next[c]--
		e.assigned[slot] = false
	}
}

// leaf scores one canonical candidate, standing for weight candidates.
func (e *exhaustiveEngine) leaf(weight int64) {
	t := e.pr.Objective(e.cand)
	e.evals++
	e.hits += weight - 1
	if t < e.best.Time {
		e.best.Time = t
		e.best.Ranks = append(e.best.Ranks[:0], e.cand...)
	}
}

// runExhaustive enumerates the orbits of the injective assignments of
// Avail ranks to the P abstract positions (respecting Fixed) and returns
// the best. The caller has already checked the cost against
// ExhaustiveLimit.
func runExhaustive(pr Problem) (Assignment, error) {
	start := time.Now()
	e := newEngine(pr)
	e.rec(0, 1)
	stats := SearchStats{
		Evaluations: e.evals,
		CacheHits:   e.hits,
		Pruned:      e.pruned,
		WallTime:    time.Since(start),
	}
	if math.IsInf(e.best.Time, 1) {
		return Assignment{Stats: stats}, fmt.Errorf("mapper: exhaustive search evaluated no candidate")
	}
	best := e.best
	best.Evaluations = int(stats.Evaluations)
	best.Stats = stats
	return best, nil
}
