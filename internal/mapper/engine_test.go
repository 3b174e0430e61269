package mapper

import (
	"encoding/binary"
	"math"
	"sync/atomic"
	"testing"
)

// loadBalanceBound is a sound lower bound for loadBalanceObjective: an
// assigned slot costs exactly w[i]/s[cand[i]], an unassigned one at best
// w[i]/max(s).
func loadBalanceBound(w, s []float64) func(cand []int, assigned []bool) float64 {
	maxS := 0.0
	for _, v := range s {
		if v > maxS {
			maxS = v
		}
	}
	return func(cand []int, assigned []bool) float64 {
		lb := 0.0
		for i, ok := range assigned {
			sp := maxS
			if ok {
				sp = s[cand[i]]
			}
			if t := w[i] / sp; t > lb {
				lb = t
			}
		}
		return lb
	}
}

// loadBalanceKey canonicalises a candidate by the per-slot speeds — for
// the load-balancing objective, equal speeds per slot imply bit-identical
// times, so ranks with duplicated speeds are interchangeable.
func loadBalanceKey(s []float64) func(dst []byte, cand []int) []byte {
	return func(dst []byte, cand []int) []byte {
		for _, r := range cand {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(s[r]))
		}
		return dst
	}
}

// refExhaustive is an independent reimplementation of the serial
// first-improvement scan the engine must reproduce bit for bit: slots in
// increasing order, ranks in Avail order, strict improvement only.
func refExhaustive(pr Problem) Assignment {
	cand := make([]int, pr.P)
	used := make(map[int]bool, pr.P)
	for a, r := range pr.Fixed {
		cand[a] = r
		used[r] = true
	}
	best := Assignment{Time: math.Inf(1)}
	var rec func(slot int)
	rec = func(slot int) {
		for slot < pr.P {
			if _, fixed := pr.Fixed[slot]; !fixed {
				break
			}
			slot++
		}
		if slot == pr.P {
			best.Evaluations++
			if t := pr.Objective(cand); t < best.Time {
				best.Time = t
				best.Ranks = append(best.Ranks[:0], cand...)
			}
			return
		}
		for _, r := range pr.Avail {
			if used[r] {
				continue
			}
			cand[slot] = r
			used[r] = true
			rec(slot + 1)
			used[r] = false
		}
	}
	rec(0)
	return best
}

func sameRanks(a, b []int) bool {
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

// randomProblem builds a deterministic pseudo-random load-balancing
// problem with duplicated speeds (so the symmetry cache has collisions to
// find) and an occasional pinned slot.
func randomProblem(state *uint64) Problem {
	next := func(n int) int {
		*state ^= *state << 13
		*state ^= *state >> 7
		*state ^= *state << 17
		return int(*state % uint64(n))
	}
	n := 3 + next(5)            // 3..7 available processes
	k := 1 + next(minInt(4, n)) // 1..min(4,n) abstract processors
	speedChoices := []float64{1, 2, 4}
	s := make([]float64, n)
	avail := make([]int, n)
	for i := range s {
		s[i] = speedChoices[next(len(speedChoices))]
		avail[i] = i
	}
	w := make([]float64, k)
	for i := range w {
		w[i] = float64(1 + next(8))
	}
	pr := Problem{
		P: k, Avail: avail, Weights: w,
		SpeedOf:      func(r int) float64 { return s[r] },
		Objective:    loadBalanceObjective(w, s),
		LowerBound:   loadBalanceBound(w, s),
		CanonicalKey: loadBalanceKey(s),
	}
	if k > 1 && next(3) == 0 {
		pr.Fixed = map[int]int{next(k): avail[next(n)]}
	}
	return pr
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestEngineMatchesSerialProperty is the core determinism property of the
// engine: over many random problems, the parallel, pruned, and
// symmetry-cached variants all return the exact Time and Ranks of the
// serial first-improvement scan, and every leaf of the permutation tree
// is accounted for as evaluated, cache-hit, or pruned.
func TestEngineMatchesSerialProperty(t *testing.T) {
	// Pruning and the symmetry memo follow the hooks the problem supplies,
	// so the ablation variants withhold them.
	variants := []struct {
		name       string
		bound, key bool
		opts       Options
	}{
		{"serial-engine", false, false, Options{Strategy: StrategyExhaustive}},
		{"parallel4", false, false, Options{Strategy: StrategyExhaustive, Parallelism: 4}},
		{"pruned", true, false, Options{Strategy: StrategyExhaustive}},
		{"cached", false, true, Options{Strategy: StrategyExhaustive}},
		{"all", true, true, Options{Strategy: StrategyExhaustive, Parallelism: 3}},
	}
	state := uint64(0x9E3779B97F4A7C15)
	var totalHits, totalPruned int64
	for caseNo := 0; caseNo < 120; caseNo++ {
		pr := randomProblem(&state)
		// Give parallel workers independent counting objectives; the
		// count must agree with the engine's own.
		var calls atomic.Int64
		serialObj := pr.Objective
		pr.Objective = func(cand []int) float64 { calls.Add(1); return serialObj(cand) }
		pr.NewObjective = func() Objective {
			return func(cand []int) float64 { calls.Add(1); return serialObj(cand) }
		}
		want := refExhaustive(Problem{P: pr.P, Avail: pr.Avail, Fixed: pr.Fixed, Objective: serialObj})
		fixedRanks := map[int]bool{}
		for _, r := range pr.Fixed {
			fixedRanks[r] = true
		}
		leaves := fallingFactorial(len(pr.Avail)-len(fixedRanks), pr.P-len(pr.Fixed))
		for _, v := range variants {
			calls.Store(0)
			vpr := pr
			if !v.bound {
				vpr.LowerBound = nil
			}
			if !v.key {
				vpr.CanonicalKey = nil
			}
			got, err := Solve(vpr, v.opts)
			if err != nil {
				t.Fatalf("case %d %s: %v", caseNo, v.name, err)
			}
			if got.Time != want.Time {
				t.Fatalf("case %d %s: time %v, want %v (problem %+v)", caseNo, v.name, got.Time, want.Time, pr)
			}
			if !sameRanks(got.Ranks, want.Ranks) {
				t.Fatalf("case %d %s: ranks %v, want %v", caseNo, v.name, got.Ranks, want.Ranks)
			}
			st := got.Stats
			if st.Evaluations+st.CacheHits+st.Pruned != leaves {
				t.Fatalf("case %d %s: %d evals + %d hits + %d pruned != %d leaves",
					caseNo, v.name, st.Evaluations, st.CacheHits, st.Pruned, leaves)
			}
			if st.Evaluations != calls.Load() {
				t.Fatalf("case %d %s: stats claim %d evaluations, objective saw %d",
					caseNo, v.name, st.Evaluations, calls.Load())
			}
			if !v.bound && !v.key && st.Evaluations != leaves {
				t.Fatalf("case %d %s: plain enumeration evaluated %d of %d leaves",
					caseNo, v.name, st.Evaluations, leaves)
			}
			totalHits += st.CacheHits
			totalPruned += st.Pruned
		}
	}
	// The property only has teeth if pruning and caching actually fired
	// somewhere across the random cases.
	if totalHits == 0 {
		t.Fatal("symmetry cache never hit across 120 random problems")
	}
	if totalPruned == 0 {
		t.Fatal("branch-and-bound never pruned across 120 random problems")
	}
}

// TestEngineParallelismInvariance pins one fixed problem across worker
// counts, including counts that do not divide the job list evenly.
func TestEngineParallelismInvariance(t *testing.T) {
	w := []float64{9, 4, 7, 2, 5}
	s := []float64{1, 2, 4, 2, 1, 4, 2, 1}
	avail := []int{0, 1, 2, 3, 4, 5, 6, 7}
	pr := Problem{
		P: 5, Avail: avail, Weights: w,
		SpeedOf:      func(r int) float64 { return s[r] },
		Objective:    loadBalanceObjective(w, s),
		LowerBound:   loadBalanceBound(w, s),
		CanonicalKey: loadBalanceKey(s),
	}
	want, err := Solve(pr, Options{Strategy: StrategyExhaustive})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 5, 8, 16} {
		got, err := Solve(pr, Options{Strategy: StrategyExhaustive, Parallelism: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got.Time != want.Time || !sameRanks(got.Ranks, want.Ranks) {
			t.Fatalf("workers=%d: got (%v, %v), want (%v, %v)", workers, got.Time, got.Ranks, want.Time, want.Ranks)
		}
		if got.Stats.Workers < 1 || got.Stats.Workers > workers {
			t.Fatalf("workers=%d: stats claim %d workers", workers, got.Stats.Workers)
		}
	}
}

// TestPruningHasTeeth: on a skewed problem the bound must actually cut
// work, not just preserve correctness.
func TestPruningHasTeeth(t *testing.T) {
	// The fast process comes first in Avail order, so the optimum is
	// found early and every later slow-first subtree is cut by the bound.
	w := []float64{100, 1, 1, 1}
	s := []float64{100, 1, 1, 1, 1, 1}
	avail := []int{0, 1, 2, 3, 4, 5}
	pr := Problem{
		P: 4, Avail: avail, Weights: w,
		SpeedOf:    func(r int) float64 { return s[r] },
		Objective:  loadBalanceObjective(w, s),
		LowerBound: loadBalanceBound(w, s),
	}
	unbounded := pr
	unbounded.LowerBound = nil
	plain, err := Solve(unbounded, Options{Strategy: StrategyExhaustive})
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := Solve(pr, Options{Strategy: StrategyExhaustive})
	if err != nil {
		t.Fatal(err)
	}
	if pruned.Time != plain.Time || !sameRanks(pruned.Ranks, plain.Ranks) {
		t.Fatalf("pruned result (%v, %v) differs from plain (%v, %v)",
			pruned.Time, pruned.Ranks, plain.Time, plain.Ranks)
	}
	if pruned.Stats.Pruned == 0 {
		t.Fatal("no subtree pruned on a problem built for it")
	}
	if pruned.Stats.Evaluations >= plain.Stats.Evaluations {
		t.Fatalf("pruning saved nothing: %d vs %d evaluations",
			pruned.Stats.Evaluations, plain.Stats.Evaluations)
	}
}
