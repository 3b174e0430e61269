// The concurrent group-selection engine. It parallelises, prunes, and
// memoises the exhaustive enumeration behind StrategyExhaustive while
// keeping the returned assignment bit-identical to the serial search for
// any worker count, and it hosts the multi-start local search and the
// strategy portfolio.
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
// far by any worker of any concurrent search. It only ever decreases.
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
	stop *atomic.Bool // optional cooperative cancel (Portfolio's Budget)

	evals, hits, pruned atomic.Int64
}

func newEngine(pr Problem, opts Options, bound *sharedBound, stop *atomic.Bool) *exhaustiveEngine {
	e := &exhaustiveEngine{pr: pr, opts: opts, bound: bound, stop: stop}
	if e.bound == nil {
		e.bound = newSharedBound()
	}
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

func (e *exhaustiveEngine) stopped() bool { return e.stop != nil && e.stop.Load() }

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
	if e.stopped() {
		return
	}
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

// runExhaustive is the engine entry point shared by StrategyExhaustive,
// StrategyAuto, and the portfolio: partition, search, reduce.
func runExhaustive(pr Problem, opts Options, bound *sharedBound, stop *atomic.Bool) (Assignment, error) {
	start := time.Now()
	e := newEngine(pr, opts, bound, stop)
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
			if e.stopped() {
				break
			}
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
					if i >= len(jobs) || e.stopped() {
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

// seedCandidate builds the start-s seed for multi-start local search:
// start 0 is the greedy speed/weight matching, further starts are
// deterministic pseudo-random permutations (xorshift keyed by s).
func seedCandidate(pr Problem, s int) []int {
	if s == 0 {
		return greedy(pr).Ranks
	}
	state := uint64(s)*0x9E3779B97F4A7C15 + 0x2545F4914F6CDD1D
	next := func(n int) int {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return int(state % uint64(n))
	}
	fixedRanks := make(map[int]bool, len(pr.Fixed))
	for _, r := range pr.Fixed {
		fixedRanks[r] = true
	}
	pool := make([]int, 0, len(pr.Avail))
	for _, r := range pr.Avail {
		if !fixedRanks[r] {
			pool = append(pool, r)
		}
	}
	for i := len(pool) - 1; i > 0; i-- {
		j := next(i + 1)
		pool[i], pool[j] = pool[j], pool[i]
	}
	cand := make([]int, pr.P)
	k := 0
	for a := 0; a < pr.P; a++ {
		if r, ok := pr.Fixed[a]; ok {
			cand[a] = r
			continue
		}
		cand[a] = pool[k]
		k++
	}
	return cand
}

// hillClimb refines cand in place by the serial local search: pairwise
// swaps and substitutions of unused processes, keeping strict
// improvements, for at most maxIterations rounds or until no move helps.
// It returns the best time and the objective calls spent. bound, when
// non-nil, receives every improvement (for concurrent pruning elsewhere);
// stop, when non-nil, ends the climb early after the current round.
func hillClimb(pr Problem, maxIterations int, cand []int, obj Objective, bound *sharedBound, stop *atomic.Bool) (float64, int64) {
	var evals int64
	best := obj(cand)
	evals++
	if bound != nil {
		bound.update(best)
	}
	fixed := func(slot int) bool {
		_, ok := pr.Fixed[slot]
		return ok
	}
	for iter := 0; iter < maxIterations; iter++ {
		if stop != nil && stop.Load() {
			break
		}
		improved := false
		// Pairwise swaps.
		for i := 0; i < pr.P; i++ {
			if fixed(i) {
				continue
			}
			for j := i + 1; j < pr.P; j++ {
				if fixed(j) {
					continue
				}
				cand[i], cand[j] = cand[j], cand[i]
				t := obj(cand)
				evals++
				if t < best {
					best = t
					improved = true
					if bound != nil {
						bound.update(best)
					}
				} else {
					cand[i], cand[j] = cand[j], cand[i]
				}
			}
		}
		// Substitutions with unused processes.
		used := make(map[int]bool, pr.P)
		for _, r := range cand {
			used[r] = true
		}
		for i := 0; i < pr.P; i++ {
			if fixed(i) {
				continue
			}
			for _, r := range pr.Avail {
				if used[r] {
					continue
				}
				old := cand[i]
				cand[i] = r
				t := obj(cand)
				evals++
				if t < best {
					best = t
					used[r] = true
					delete(used, old)
					improved = true
					if bound != nil {
						bound.update(best)
					}
				} else {
					cand[i] = old
				}
			}
		}
		if !improved {
			break
		}
	}
	return best, evals
}

// greedyLocalSearch runs Options.Restarts independent hill climbs and
// keeps the best result (earlier start wins ties). Starts run on up to
// Options.Parallelism workers; since each climbs independently and the
// reduction scans start results in order with a strict comparison, the
// result is independent of the worker count.
func greedyLocalSearch(pr Problem, opts Options, bound *sharedBound, stop *atomic.Bool) (Assignment, error) {
	start := time.Now()
	type startResult struct {
		found bool
		time  float64
		ranks []int
		evals int64
	}
	results := make([]startResult, opts.Restarts)
	runStart := func(s int, obj Objective) {
		// Start 0 always runs, so even an expired Budget yields a result.
		if s > 0 && stop != nil && stop.Load() {
			return
		}
		cand := seedCandidate(pr, s)
		t, ev := hillClimb(pr, opts.MaxIterations, cand, obj, bound, stop)
		results[s] = startResult{found: true, time: t, ranks: cand, evals: ev}
	}
	workers := opts.Parallelism
	if workers > opts.Restarts {
		workers = opts.Restarts
	}
	if workers < 1 {
		workers = 1
	}
	if workers == 1 {
		obj := pr.Objective
		if pr.NewObjective != nil {
			obj = pr.NewObjective()
		}
		for s := 0; s < opts.Restarts; s++ {
			runStart(s, obj)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for g := 0; g < workers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				obj := pr.Objective
				if pr.NewObjective != nil {
					obj = pr.NewObjective()
				}
				for {
					s := int(next.Add(1) - 1)
					if s >= opts.Restarts {
						return
					}
					runStart(s, obj)
				}
			}()
		}
		wg.Wait()
	}
	best := Assignment{Time: math.Inf(1)}
	var evals int64
	for s := range results {
		if !results[s].found {
			continue
		}
		evals += results[s].evals
		if results[s].time < best.Time {
			best.Time = results[s].time
			best.Ranks = results[s].ranks
		}
	}
	best.Evaluations = int(evals)
	best.Stats = SearchStats{Evaluations: evals, Workers: workers, WallTime: time.Since(start)}
	return best, nil
}

// randomSearch scores tries pseudo-random assignments (xorshift, fixed
// seed: deterministic) and keeps the best; the portfolio's sampling racer
// and the body of StrategyRandomBest.
func randomSearch(pr Problem, tries int, obj Objective, bound *sharedBound, stop *atomic.Bool) Assignment {
	state := uint64(0x9E3779B97F4A7C15)
	next := func(n int) int {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return int(state % uint64(n))
	}
	best := Assignment{Time: math.Inf(1)}
	pool := make([]int, 0, len(pr.Avail))
	fixedRanks := make(map[int]bool, len(pr.Fixed))
	for _, r := range pr.Fixed {
		fixedRanks[r] = true
	}
	for _, r := range pr.Avail {
		if !fixedRanks[r] {
			pool = append(pool, r)
		}
	}
	var evals int64
	for try := 0; try < tries; try++ {
		// The first try always runs, so even an expired Budget yields
		// a scored assignment.
		if try > 0 && stop != nil && stop.Load() {
			break
		}
		perm := append([]int(nil), pool...)
		for i := len(perm) - 1; i > 0; i-- {
			j := next(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		cand := make([]int, pr.P)
		k := 0
		for a := 0; a < pr.P; a++ {
			if r, ok := pr.Fixed[a]; ok {
				cand[a] = r
				continue
			}
			cand[a] = perm[k]
			k++
		}
		t := obj(cand)
		evals++
		if t < best.Time {
			best.Time = t
			best.Ranks = cand
			if bound != nil {
				bound.update(t)
			}
		}
	}
	best.Evaluations = int(evals)
	best.Stats = SearchStats{Evaluations: evals, Workers: 1}
	return best
}

// portfolio races exhaustive search (when feasible under
// ExhaustiveLimit), multi-start local search, and random sampling under a
// shared best-so-far bound and an optional wall-clock Budget. Without a
// budget every racer is deterministic and so is the fixed-priority
// reduction; with one, racers return their best-so-far when time runs
// out.
func portfolio(pr Problem, opts Options) (Assignment, error) {
	start := time.Now()
	bound := newSharedBound()
	stop := new(atomic.Bool)
	if opts.Budget > 0 {
		t := time.AfterFunc(opts.Budget, func() { stop.Store(true) })
		defer t.Stop()
	}
	type entry struct {
		a  Assignment
		ok bool
	}
	var ex, gl, rb entry
	var wg sync.WaitGroup
	if exhaustiveCost(len(pr.Avail), pr.P, opts.ExhaustiveLimit) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			a, err := runExhaustive(pr, opts, bound, stop)
			ex = entry{a, err == nil}
		}()
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		a, err := greedyLocalSearch(pr, opts, bound, stop)
		gl = entry{a, err == nil && a.Ranks != nil}
	}()
	go func() {
		defer wg.Done()
		obj := pr.Objective
		if pr.NewObjective != nil {
			obj = pr.NewObjective()
		}
		a := randomSearch(pr, opts.RandomTries, obj, bound, stop)
		rb = entry{a, a.Ranks != nil}
	}()
	wg.Wait()
	// Deterministic fixed-priority reduction: exhaustive first (when it
	// completes it holds the true optimum), then local search, then
	// sampling; only a strictly lower time displaces an earlier racer.
	best := Assignment{Time: math.Inf(1)}
	stats := SearchStats{Workers: opts.Parallelism}
	for _, e := range []entry{ex, gl, rb} {
		if !e.ok {
			continue
		}
		stats.Evaluations += e.a.Stats.Evaluations
		stats.CacheHits += e.a.Stats.CacheHits
		stats.Pruned += e.a.Stats.Pruned
		if e.a.Ranks != nil && e.a.Time < best.Time {
			best.Time = e.a.Time
			best.Ranks = e.a.Ranks
		}
	}
	if math.IsInf(best.Time, 1) {
		// Budget too tight for any racer: score the greedy seed so the
		// caller always receives a valid assignment.
		a := greedy(pr)
		a.Time = pr.Objective(a.Ranks)
		stats.Evaluations++
		stats.WallTime = time.Since(start)
		a.Evaluations = int(stats.Evaluations)
		a.Stats = stats
		return a, nil
	}
	stats.WallTime = time.Since(start)
	best.Evaluations = int(stats.Evaluations)
	best.Stats = stats
	return best, nil
}
