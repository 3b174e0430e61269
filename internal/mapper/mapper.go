// Package mapper solves the process-selection problem at the heart of
// HMPI_Group_create: choose, from the available processes of the network,
// the assignment of the performance model's abstract processors to actual
// processes that minimises the predicted execution time of the algorithm.
//
// Exhaustive search is factorial, so like the mpC runtime the paper builds
// on, the default strategy is a heuristic: seed by matching the heaviest
// abstract processors with the fastest processes, then improve by local
// search (pairwise swaps and substitutions of unused processes) under the
// full estimator objective.
package mapper

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"time"
)

// Objective scores a candidate assignment (abstract processor index ->
// world process rank); lower is better. It is typically
// (*estimator.Session).Timeof.
type Objective func(candidate []int) float64

// Problem describes one selection problem.
type Problem struct {
	// P is the number of abstract processors to place.
	P int
	// Avail lists the world ranks that may be selected (the free
	// processes, plus the parent).
	Avail []int
	// Fixed pins abstract processors to specific ranks; the parent of
	// the new group is pinned to the model's parent coordinate.
	Fixed map[int]int
	// Weights[i] is the computation volume of abstract processor i, used
	// by the greedy seeding heuristic.
	Weights []float64
	// SpeedOf returns the estimated speed of a world process, used by
	// the greedy seeding heuristic.
	SpeedOf func(rank int) float64
	// Objective scores candidates.
	Objective Objective

	// NewObjective, when set, returns a fresh independently-usable
	// objective for one exhaustive-search worker (typically binding a new
	// estimator.Session); the engine gives every worker its own. When nil,
	// workers share Objective, which must then be safe for concurrent use.
	// The heuristic strategies run on one goroutine and use Objective.
	NewObjective func() Objective
	// LowerBound, when set, returns a lower bound on Objective over
	// every completion of a partial candidate: cand[i] is meaningful
	// where assigned[i]. The exhaustive search then prunes by branch and
	// bound: subtrees whose bound exceeds the best time found anywhere
	// are skipped, which never changes the result (only strictly worse
	// subtrees are cut). It must be safe for concurrent use.
	LowerBound func(cand []int, assigned []bool) float64
	// CanonicalKey, when set, appends to dst a key such that candidates
	// with equal keys have identical Objective values (typically
	// (*estimator.Estimator).AppendCanonicalKey, which canonicalises
	// machine symmetry). The exhaustive search then scores candidates
	// whose keys collide once. It must be safe for concurrent use.
	CanonicalKey func(dst []byte, cand []int) []byte
}

// Strategy selects the search algorithm.
type Strategy int

// Strategies.
const (
	// StrategyAuto uses exhaustive search for tiny problems and greedy
	// seeding plus local search otherwise.
	StrategyAuto Strategy = iota
	// StrategyExhaustive enumerates every assignment (errors out beyond
	// ExhaustiveLimit evaluations).
	StrategyExhaustive
	// StrategyGreedy uses only the speed-ordered seeding.
	StrategyGreedy
	// StrategyGreedyLocal refines the greedy seed by local search.
	StrategyGreedyLocal
	// StrategyRandomBest scores randomTries pseudo-random assignments and
	// keeps the best; a baseline for the ablation study.
	StrategyRandomBest
)

// Search constants of the heuristic strategies.
const (
	maxIterations = 100 // local-search improvement rounds
	randomTries   = 100 // StrategyRandomBest's sample size
)

// Options tune the search.
type Options struct {
	Strategy Strategy
	// ExhaustiveLimit caps the number of exhaustive evaluations
	// (default 200000).
	ExhaustiveLimit int
	// Parallelism is the number of exhaustive-search workers (0 or 1:
	// serial). The assignment returned is independent of the worker count:
	// the permutation tree is partitioned deterministically and reduced
	// with the serial tie-break (lower time wins, earlier enumeration order
	// on ties).
	Parallelism int
	// Deprecated: Prune and Cache are ignored. Branch-and-bound and the
	// symmetry memo never change the result, so they are on whenever the
	// Problem supplies LowerBound / CanonicalKey. The fields exist only
	// because the benchmark's sources (bench/layers.go), which this
	// repository's changes may not touch, still set them; they go in the
	// first change that may edit that line.
	Prune, Cache bool
	// Shared, when non-nil, is the caller's SelectionCache — the one store
	// of scored candidates and solved problems — so what this search works
	// out outlives the call (a runtime's planning round, the hmpid daemon's
	// warm path); without one an exhaustive search memoises into a cache it
	// throws away. It requires a non-empty Namespace when the problem
	// supplies a CanonicalKey: canonical keys identify a candidate's shape,
	// not the cost model scoring it, so entries from different clusters or
	// model instances must never alias. Hits return values bit-identical to
	// evaluation, so the assignment returned is independent of the cache's
	// content, size, and eviction history.
	Shared *SelectionCache
	// Namespace is the key prefix qualifying every value this search reads
	// from or writes to Shared — typically estimator.AppendNamespace's
	// digest of the model instance and the cluster's link costs.
	Namespace []byte
	// MemoKey, when non-empty alongside Shared, stores the solved problem
	// itself: the assignment goes into Shared under a digest of MemoKey,
	// the problem, and the result-affecting options, and a repeated Solve
	// returns it without searching (Stats.Memoized marks such a result).
	// The caller's MemoKey must pin everything the objective depends on
	// that the problem's own fields do not — for Timeof objectives,
	// estimator.AppendMemoKey (cost model + placement + speeds). Every
	// strategy is deterministic given those inputs, so a stored assignment
	// is bit-identical to the search it replaces.
	MemoKey []byte
}

func (o *Options) fill() {
	if o.ExhaustiveLimit == 0 {
		o.ExhaustiveLimit = 200_000
	}
	if o.Parallelism <= 0 {
		o.Parallelism = 1
	}
}

// Assignment is a solved selection.
type Assignment struct {
	// Ranks[i] is the world process rank running abstract processor i.
	Ranks []int
	// Time is the objective value (predicted execution time).
	Time float64
	// Evaluations counts objective calls spent.
	Evaluations int
	// Stats details the search work behind the assignment.
	Stats SearchStats
}

// Solve runs the selection search.
func Solve(pr Problem, opts Options) (Assignment, error) {
	return SolveLazy(pr, opts, nil)
}

// SolveLazy is Solve for a caller whose objective is costly to build: pr
// arrives without Objective, NewObjective, LowerBound and CanonicalKey —
// none of which the solve layer's key reads — and bind, when non-nil,
// supplies them, called only once a search is certain to run. A problem
// the Shared cache has already solved (Options.MemoKey) therefore costs
// the lookup and nothing else.
func SolveLazy(pr Problem, opts Options, bind func(*Problem) error) (Assignment, error) {
	opts.fill()
	if err := validate(pr); err != nil {
		return Assignment{}, err
	}
	search := func() (Assignment, error) {
		if bind != nil {
			if err := bind(&pr); err != nil {
				return Assignment{}, err
			}
		}
		if pr.Objective == nil {
			return Assignment{}, fmt.Errorf("mapper: nil objective")
		}
		if opts.Shared != nil && len(opts.Namespace) == 0 && pr.CanonicalKey != nil {
			return Assignment{}, fmt.Errorf("mapper: a Shared selection cache needs a Namespace (canonical keys do not identify the cluster or model)")
		}
		return solve(pr, opts)
	}
	if opts.Shared == nil || len(opts.MemoKey) == 0 {
		return search()
	}
	key := append(make([]byte, 0, 1024), opts.MemoKey...) // on the stack
	return opts.Shared.solved(appendSolveDigest(key, pr, opts), search)
}

// appendSolveDigest extends the caller's MemoKey with every problem and
// option field that determines the search result. Parallelism is absent
// on purpose: it never changes the assignment (only how fast it is
// found), so solves differing only there share entries.
func appendSolveDigest(dst []byte, pr Problem, opts Options) []byte {
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		dst = append(dst, buf[:]...)
	}
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	u64(uint64(opts.Strategy))
	u64(uint64(opts.ExhaustiveLimit))
	u64(uint64(pr.P))
	u64(uint64(len(pr.Avail)))
	for _, r := range pr.Avail {
		u64(uint64(r))
		if pr.SpeedOf != nil {
			f64(pr.SpeedOf(r))
		}
	}
	fixed := make([]int, 0, len(pr.Fixed))
	for a := range pr.Fixed {
		fixed = append(fixed, a)
	}
	sort.Ints(fixed)
	u64(uint64(len(fixed)))
	for _, a := range fixed {
		u64(uint64(a))
		u64(uint64(pr.Fixed[a]))
	}
	u64(uint64(len(pr.Weights)))
	for _, w := range pr.Weights {
		f64(w)
	}
	return dst
}

// solve resolves StrategyAuto and runs the search. The exhaustive engine
// reads the shared cache at its leaves (see newEngine); the heuristic
// strategies reach it through a wrapped objective.
func solve(pr Problem, opts Options) (Assignment, error) {
	strategy := opts.Strategy
	if strategy == StrategyAuto {
		strategy = StrategyGreedyLocal
		if exhaustiveCost(len(pr.Avail), pr.P, opts.ExhaustiveLimit) > 0 {
			strategy = StrategyExhaustive
		}
	}
	if strategy != StrategyExhaustive && opts.Shared != nil && pr.CanonicalKey != nil {
		pr = sharedObjective(pr, opts.Shared, opts.Namespace)
	}
	start := time.Now()
	var a Assignment
	switch strategy {
	case StrategyExhaustive:
		if exhaustiveCost(len(pr.Avail), pr.P, opts.ExhaustiveLimit) < 0 {
			return Assignment{}, fmt.Errorf("mapper: exhaustive search over %d processes in %d slots exceeds limit %d",
				len(pr.Avail), pr.P, opts.ExhaustiveLimit)
		}
		return runExhaustive(pr, opts)
	case StrategyGreedy:
		a = greedy(pr)
		a.Time, a.Evaluations = pr.Objective(a.Ranks), 1
	case StrategyGreedyLocal:
		a = greedy(pr)
		a.Time, a.Evaluations = hillClimb(pr, a.Ranks)
	case StrategyRandomBest:
		a = randomBest(pr)
	default:
		return Assignment{}, fmt.Errorf("mapper: unknown strategy %d", opts.Strategy)
	}
	a.Stats = SearchStats{Evaluations: int64(a.Evaluations), Workers: 1, WallTime: time.Since(start)}
	return a, nil
}

func validate(pr Problem) error {
	if pr.P <= 0 {
		return fmt.Errorf("mapper: non-positive processor count %d", pr.P)
	}
	seen := make(map[int]bool, len(pr.Avail))
	for _, r := range pr.Avail {
		if seen[r] {
			return fmt.Errorf("mapper: rank %d listed twice in Avail", r)
		}
		seen[r] = true
	}
	for a, r := range pr.Fixed {
		if a < 0 || a >= pr.P {
			return fmt.Errorf("mapper: fixed abstract index %d out of range", a)
		}
		if !seen[r] {
			return fmt.Errorf("mapper: fixed rank %d not in Avail, or pinned twice", r)
		}
		seen[r] = false // a second pin of r fails the check above
	}
	if len(pr.Avail) < pr.P {
		return fmt.Errorf("mapper: %d processes available for %d abstract processors", len(pr.Avail), pr.P)
	}
	if pr.Weights != nil && len(pr.Weights) != pr.P {
		return fmt.Errorf("mapper: %d weights for %d abstract processors", len(pr.Weights), pr.P)
	}
	return nil
}

// exhaustiveCost returns the number of assignments if it is within limit,
// else -1.
func exhaustiveCost(n, p, limit int) int {
	cost := 1
	for i := 0; i < p; i++ {
		cost *= n - i
		if cost > limit || cost < 0 {
			return -1
		}
	}
	return cost
}

// greedy assigns the heaviest abstract processors to the fastest available
// processes.
func greedy(pr Problem) Assignment {
	cand := make([]int, pr.P)
	used := make(map[int]bool, pr.P)
	for a, r := range pr.Fixed {
		cand[a] = r
		used[r] = true
	}
	// Abstract positions by descending weight (stable on index).
	slots := make([]int, 0, pr.P)
	for a := 0; a < pr.P; a++ {
		if _, fixed := pr.Fixed[a]; !fixed {
			slots = append(slots, a)
		}
	}
	if pr.Weights != nil {
		sort.SliceStable(slots, func(i, j int) bool {
			return pr.Weights[slots[i]] > pr.Weights[slots[j]]
		})
	}
	// Processes by descending speed (stable on rank order).
	ranks := make([]int, 0, len(pr.Avail))
	for _, r := range pr.Avail {
		if !used[r] {
			ranks = append(ranks, r)
		}
	}
	if pr.SpeedOf != nil {
		sort.SliceStable(ranks, func(i, j int) bool {
			return pr.SpeedOf(ranks[i]) > pr.SpeedOf(ranks[j])
		})
	}
	for i, a := range slots {
		cand[a] = ranks[i]
	}
	return Assignment{Ranks: cand}
}

// hillClimb refines cand in place by local search: swap the processes of
// two abstract positions, or substitute an unused available process,
// keeping any move that strictly lowers the objective, for at most
// maxIterations rounds or until no move helps. It returns the best time
// and the objective calls spent.
func hillClimb(pr Problem, cand []int) (float64, int) {
	best := pr.Objective(cand)
	evals := 1
	fixed := func(slot int) bool {
		_, ok := pr.Fixed[slot]
		return ok
	}
	for iter := 0; iter < maxIterations; iter++ {
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
				t := pr.Objective(cand)
				evals++
				if t < best {
					best = t
					improved = true
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
				t := pr.Objective(cand)
				evals++
				if t < best {
					best = t
					used[r] = true
					delete(used, old)
					improved = true
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

// randomBest scores randomTries pseudo-random assignments (xorshift, fixed
// seed: deterministic) and keeps the best.
func randomBest(pr Problem) Assignment {
	state := uint64(0x9E3779B97F4A7C15)
	next := func(n int) int {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return int(state % uint64(n))
	}
	best := Assignment{Time: math.Inf(1), Evaluations: randomTries}
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
	for try := 0; try < randomTries; try++ {
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
		if t := pr.Objective(cand); t < best.Time {
			best.Time = t
			best.Ranks = cand
		}
	}
	return best
}
