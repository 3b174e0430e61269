// The concurrent group-selection engine. It parallelises, prunes, and
// memoises the exhaustive enumeration behind StrategyExhaustive while
// keeping the returned assignment bit-identical to the serial search for
// any worker count.
//
// Determinism scheme: the permutation tree over the free slots is
// partitioned into jobs by its first one or two levels, in enumeration
// order, so the jobs' subtrees concatenated are exactly the serial scan.
// Each job keeps a local best that only a strict improvement replaces;
// the shared best-so-far is used exclusively for pruning, and only
// subtrees whose lower bound strictly exceeds it are cut (such subtrees
// cannot contain the optimum, nor tie with it). The final reduction scans
// the job results in job order with a strict comparison, which reproduces
// the serial tie-break: lowest time wins, earliest enumeration order on
// ties.

package mapper

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"
)

// SearchStats details the work behind one Solve call.
type SearchStats struct {
	// Evaluations counts objective calls across all workers.
	Evaluations int64
	// CacheHits counts candidates scored from the symmetry memo cache
	// instead of the objective.
	CacheHits int64
	// Pruned counts complete assignments skipped by branch-and-bound;
	// every leaf of a cut subtree is counted, so for exhaustive search
	// Evaluations + CacheHits + Pruned equals the full tree size.
	Pruned int64
	// Workers is the number of search workers used.
	Workers int
	// WallTime is the elapsed time of the search.
	WallTime time.Duration
	// Memoized marks an assignment served from the selection cache's solve
	// layer (Options.MemoKey): no search ran, and the other counters are
	// those of the search that first solved the problem.
	Memoized bool
}

// sharedBound is an atomically-updated minimum over the times found so
// far by any worker of one exhaustive search, its pruning bound. It only
// ever decreases.
type sharedBound struct{ bits atomic.Uint64 }

func newSharedBound() *sharedBound {
	b := new(sharedBound)
	b.bits.Store(math.Float64bits(math.Inf(1)))
	return b
}

func (b *sharedBound) load() float64 { return math.Float64frombits(b.bits.Load()) }

func (b *sharedBound) update(t float64) {
	for {
		old := b.bits.Load()
		if math.Float64frombits(old) <= t {
			return
		}
		if b.bits.CompareAndSwap(old, math.Float64bits(t)) {
			return
		}
	}
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

// exhaustiveEngine holds the shared, read-only search description plus
// the shared mutable state (bound, cache, counters).
type exhaustiveEngine struct {
	pr    Problem
	opts  Options
	slots []int // abstract positions not pinned by Fixed, increasing
	pool  []int // Avail ranks not pinned, in Avail order
	base  []int // candidate template with the Fixed ranks placed
	bound *sharedBound
	// memo, non-nil when the problem supplies CanonicalKey, memoises
	// objective values by canonical key: the caller's cache when there is
	// one (ns is the namespace prefix every key carries there, see
	// SelectionCache), a throwaway one otherwise.
	memo *SelectionCache
	ns   []byte

	evals, hits, pruned atomic.Int64
}

func newEngine(pr Problem, opts Options) *exhaustiveEngine {
	e := &exhaustiveEngine{pr: pr, opts: opts, bound: newSharedBound()}
	e.base = make([]int, pr.P)
	fixedRank := make(map[int]bool, len(pr.Fixed))
	for a, r := range pr.Fixed {
		e.base[a] = r
		fixedRank[r] = true
	}
	for a := 0; a < pr.P; a++ {
		if _, ok := pr.Fixed[a]; !ok {
			e.slots = append(e.slots, a)
		}
	}
	for _, r := range pr.Avail {
		if !fixedRank[r] {
			e.pool = append(e.pool, r)
		}
	}
	if pr.CanonicalKey != nil {
		e.memo, e.ns = opts.Shared, opts.Namespace
		if e.memo == nil {
			e.memo = NewSelectionCache(0)
		}
	}
	return e
}

// prefixDepth picks how many leading free slots form one job: 0 (one job,
// the whole tree) for a serial search, 1 otherwise, and 2 when the pool
// is too small to give every worker several depth-1 jobs.
func (e *exhaustiveEngine) prefixDepth() int {
	w := e.opts.Parallelism
	k := len(e.slots)
	if w <= 1 || k == 0 {
		return 0
	}
	d := 1
	if len(e.pool) < 4*w && k >= 2 {
		d = 2
	}
	return d
}

// makeJobs enumerates the injective pool-index prefixes of length d in
// lexicographic order; concatenated, the jobs' subtrees are exactly the
// serial enumeration order.
func (e *exhaustiveEngine) makeJobs(d int) [][]int {
	if d == 0 {
		return [][]int{nil}
	}
	n := len(e.pool)
	var jobs [][]int
	if d == 1 {
		for i := 0; i < n; i++ {
			jobs = append(jobs, []int{i})
		}
		return jobs
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j != i {
				jobs = append(jobs, []int{i, j})
			}
		}
	}
	return jobs
}

// jobResult is one job's local best, written by exactly one worker.
type jobResult struct {
	found bool
	time  float64
	ranks []int
}

// engineWorker owns the per-goroutine mutable search state: one objective
// (a fresh one per worker when the problem provides NewObjective), the
// candidate under construction, and reusable key/mask buffers.
type engineWorker struct {
	e        *exhaustiveEngine
	obj      Objective
	cand     []int
	used     []bool // indexed like e.pool
	assigned []bool // indexed like cand, for LowerBound
	key      []byte
	cur      *jobResult
}

func (e *exhaustiveEngine) newWorker() *engineWorker {
	obj := e.pr.Objective
	if e.pr.NewObjective != nil {
		obj = e.pr.NewObjective()
	}
	return &engineWorker{
		e:        e,
		obj:      obj,
		cand:     make([]int, e.pr.P),
		used:     make([]bool, len(e.pool)),
		assigned: make([]bool, e.pr.P),
	}
}

// runJob searches the subtree below one prefix. The prefix node's own
// bound is checked here (the node belongs to this job alone); ancestors
// shared with sibling jobs are never pruned, so no leaf is counted twice.
func (w *engineWorker) runJob(job []int, res *jobResult) {
	e := w.e
	copy(w.cand, e.base)
	for i := range w.used {
		w.used[i] = false
	}
	for a := range w.assigned {
		_, w.assigned[a] = e.pr.Fixed[a]
	}
	res.found = false
	res.time = math.Inf(1)
	w.cur = res
	for i, pi := range job {
		w.cand[e.slots[i]] = e.pool[pi]
		w.used[pi] = true
		w.assigned[e.slots[i]] = true
	}
	d := len(job)
	if d > 0 && e.pr.LowerBound != nil {
		if e.pr.LowerBound(w.cand, w.assigned) > e.bound.load() {
			e.pruned.Add(fallingFactorial(len(e.pool)-d, len(e.slots)-d))
			return
		}
	}
	w.rec(d)
}

func (w *engineWorker) rec(depth int) {
	e := w.e
	if depth == len(e.slots) {
		w.leaf()
		return
	}
	slot := e.slots[depth]
	for pi := range e.pool {
		if w.used[pi] {
			continue
		}
		w.cand[slot] = e.pool[pi]
		w.used[pi] = true
		w.assigned[slot] = true
		if e.pr.LowerBound != nil && e.pr.LowerBound(w.cand, w.assigned) > e.bound.load() {
			e.pruned.Add(fallingFactorial(len(e.pool)-depth-1, len(e.slots)-depth-1))
		} else {
			w.rec(depth + 1)
		}
		w.used[pi] = false
		w.assigned[slot] = false
	}
}

// leaf scores one complete candidate: from the selection cache when a
// candidate with the same canonical key was already scored (equal keys
// guarantee bit-identical objectives), from the objective otherwise. With
// a Shared cache the key is namespace-qualified and the memo survives
// this search; either way a hit returns the bit-identical value an
// evaluation would have, so the search result never depends on cache
// state.
func (w *engineWorker) leaf() {
	e := w.e
	var t float64
	if e.memo != nil {
		w.key = e.pr.CanonicalKey(append(w.key[:0], e.ns...), w.cand)
		if ct, ok := e.memo.values.get(w.key); ok {
			e.hits.Add(1)
			t = ct
		} else {
			t = w.obj(w.cand)
			e.evals.Add(1)
			e.memo.values.put(w.key, t)
		}
	} else {
		t = w.obj(w.cand)
		e.evals.Add(1)
	}
	if t < w.cur.time {
		w.cur.time = t
		w.cur.ranks = append(w.cur.ranks[:0], w.cand...)
		w.cur.found = true
		e.bound.update(t)
	}
}

// runExhaustive enumerates all injective assignments of Avail ranks to the
// P abstract positions (respecting Fixed) and returns the best: partition,
// search, reduce. The caller has already checked the cost against
// ExhaustiveLimit.
func runExhaustive(pr Problem, opts Options) (Assignment, error) {
	start := time.Now()
	e := newEngine(pr, opts)
	jobs := e.makeJobs(e.prefixDepth())
	results := make([]jobResult, len(jobs))
	workers := opts.Parallelism
	if workers > len(jobs) {
		workers = len(jobs)
	}
	if workers < 1 {
		workers = 1
	}
	if workers == 1 {
		w := e.newWorker()
		for i := range jobs {
			w.runJob(jobs[i], &results[i])
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				w := e.newWorker()
				for {
					i := int(next.Add(1) - 1)
					if i >= len(jobs) {
						return
					}
					w.runJob(jobs[i], &results[i])
				}
			}()
		}
		wg.Wait()
	}
	best := Assignment{Time: math.Inf(1)}
	for i := range results {
		if results[i].found && results[i].time < best.Time {
			best.Time = results[i].time
			best.Ranks = results[i].ranks
		}
	}
	stats := SearchStats{
		Evaluations: e.evals.Load(),
		CacheHits:   e.hits.Load(),
		Pruned:      e.pruned.Load(),
		Workers:     workers,
		WallTime:    time.Since(start),
	}
	if math.IsInf(best.Time, 1) {
		return Assignment{Stats: stats}, fmt.Errorf("mapper: exhaustive search evaluated no candidate")
	}
	best.Ranks = append([]int(nil), best.Ranks...)
	best.Evaluations = int(stats.Evaluations)
	best.Stats = stats
	return best, nil
}
