package mapper

import (
	"math"
	"testing"
	"testing/quick"
)

// loadBalanceObjective builds an objective for a pure load-balancing
// problem: abstract processor i has weight w[i], process r has speed s[r];
// the time is max(w[i]/s[cand[i]]).
func loadBalanceObjective(w, s []float64) Objective {
	return func(cand []int) float64 {
		worst := 0.0
		for i, r := range cand {
			if t := w[i] / s[r]; t > worst {
				worst = t
			}
		}
		return worst
	}
}

func TestExhaustiveFindsOptimum(t *testing.T) {
	w := []float64{10, 1}
	s := []float64{1, 10, 5}
	pr := Problem{
		P:         2,
		Avail:     []int{0, 1, 2},
		Weights:   w,
		SpeedOf:   func(r int) float64 { return s[r] },
		Objective: loadBalanceObjective(w, s),
	}
	a, err := Solve(pr, Options{Strategy: StrategyExhaustive})
	if err != nil {
		t.Fatal(err)
	}
	// Optimal: heavy task on speed-10 process: time max(10/10, 1/5)=1.
	if a.Ranks[0] != 1 {
		t.Fatalf("heavy task on process %d, want 1 (ranks %v)", a.Ranks[0], a.Ranks)
	}
	if math.Abs(a.Time-1) > 1e-12 {
		t.Fatalf("time = %v, want 1", a.Time)
	}
	if a.Evaluations != 6 { // 3*2 arrangements
		t.Fatalf("evaluations = %d, want 6", a.Evaluations)
	}
}

func TestGreedyMatchesHeavyToFast(t *testing.T) {
	w := []float64{5, 50, 20}
	s := []float64{100, 7, 30, 55}
	pr := Problem{
		P:         3,
		Avail:     []int{0, 1, 2, 3},
		Weights:   w,
		SpeedOf:   func(r int) float64 { return s[r] },
		Objective: loadBalanceObjective(w, s),
	}
	a, err := Solve(pr, Options{Strategy: StrategyGreedy})
	if err != nil {
		t.Fatal(err)
	}
	// weight 50 -> speed 100 (rank 0), weight 20 -> speed 55 (rank 3),
	// weight 5 -> speed 30 (rank 2).
	want := []int{2, 0, 3}
	for i := range want {
		if a.Ranks[i] != want[i] {
			t.Fatalf("greedy ranks = %v, want %v", a.Ranks, want)
		}
	}
}

func TestLocalSearchMatchesExhaustiveOnSmallProblems(t *testing.T) {
	w := []float64{3, 9, 27, 5}
	s := []float64{10, 20, 5, 40, 8, 15}
	pr := Problem{
		P:         4,
		Avail:     []int{0, 1, 2, 3, 4, 5},
		Weights:   w,
		SpeedOf:   func(r int) float64 { return s[r] },
		Objective: loadBalanceObjective(w, s),
	}
	ex, err := Solve(pr, Options{Strategy: StrategyExhaustive})
	if err != nil {
		t.Fatal(err)
	}
	gl, err := Solve(pr, Options{Strategy: StrategyGreedyLocal})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gl.Time-ex.Time) > 1e-12 {
		t.Fatalf("local search time %v, exhaustive optimum %v", gl.Time, ex.Time)
	}
	if gl.Evaluations >= ex.Evaluations {
		t.Fatalf("local search used %d evaluations, exhaustive %d", gl.Evaluations, ex.Evaluations)
	}
}

func TestFixedParentRespected(t *testing.T) {
	w := []float64{100, 1}
	s := []float64{1, 1000}
	pr := Problem{
		P:         2,
		Avail:     []int{0, 1},
		Fixed:     map[int]int{0: 0}, // parent pinned to the slow process
		Weights:   w,
		SpeedOf:   func(r int) float64 { return s[r] },
		Objective: loadBalanceObjective(w, s),
	}
	for _, st := range []Strategy{StrategyExhaustive, StrategyGreedy, StrategyGreedyLocal, StrategyRandomBest} {
		a, err := Solve(pr, Options{Strategy: st})
		if err != nil {
			t.Fatalf("strategy %v: %v", st, err)
		}
		if a.Ranks[0] != 0 {
			t.Fatalf("strategy %v moved the pinned parent: %v", st, a.Ranks)
		}
	}
}

func TestAutoStrategySmallAndLarge(t *testing.T) {
	w := make([]float64, 3)
	s := make([]float64, 12)
	for i := range w {
		w[i] = float64(i + 1)
	}
	for i := range s {
		s[i] = float64(i%5 + 1)
	}
	avail := make([]int, len(s))
	for i := range avail {
		avail[i] = i
	}
	pr := Problem{
		P: 3, Avail: avail, Weights: w,
		SpeedOf:   func(r int) float64 { return s[r] },
		Objective: loadBalanceObjective(w, s),
	}
	small, err := Solve(pr, Options{Strategy: StrategyAuto})
	if err != nil {
		t.Fatal(err)
	}
	// 12*11*10 = 1320 <= limit: auto should have gone exhaustive and
	// found the optimum.
	ex, _ := Solve(pr, Options{Strategy: StrategyExhaustive})
	if small.Time != ex.Time {
		t.Fatalf("auto small time %v != exhaustive %v", small.Time, ex.Time)
	}
	// A big problem must not blow up.
	w2 := make([]float64, 9)
	for i := range w2 {
		w2[i] = float64(9 - i)
	}
	s2 := make([]float64, 40)
	for i := range s2 {
		s2[i] = float64(i%7 + 1)
	}
	avail2 := make([]int, len(s2))
	for i := range avail2 {
		avail2[i] = i
	}
	pr2 := Problem{
		P: 9, Avail: avail2, Weights: w2,
		SpeedOf:   func(r int) float64 { return s2[r] },
		Objective: loadBalanceObjective(w2, s2),
	}
	big, err := Solve(pr2, Options{Strategy: StrategyAuto})
	if err != nil {
		t.Fatal(err)
	}
	if big.Evaluations > 100_000 {
		t.Fatalf("auto large used %d evaluations", big.Evaluations)
	}
}

func TestValidation(t *testing.T) {
	ok := Problem{
		P: 1, Avail: []int{0}, Objective: func([]int) float64 { return 0 },
	}
	cases := []struct {
		name string
		mut  func(Problem) Problem
	}{
		{"zero P", func(p Problem) Problem { p.P = 0; return p }},
		{"nil objective", func(p Problem) Problem { p.Objective = nil; return p }},
		{"too few avail", func(p Problem) Problem { p.P = 2; return p }},
		{"dup avail", func(p Problem) Problem { p.Avail = []int{0, 0}; return p }},
		{"fixed outside avail", func(p Problem) Problem { p.Fixed = map[int]int{0: 9}; return p }},
		{"fixed index out of range", func(p Problem) Problem { p.Fixed = map[int]int{5: 0}; return p }},
		{"rank pinned twice", func(p Problem) Problem {
			p.P, p.Avail, p.Fixed = 3, []int{0, 1, 2, 3}, map[int]int{0: 2, 1: 2}
			return p
		}},
		{"bad weights len", func(p Problem) Problem { p.Weights = []float64{1, 2}; return p }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Solve(tc.mut(ok), Options{}); err == nil {
				t.Fatalf("invalid problem accepted (%s)", tc.name)
			}
		})
	}
}

func TestExhaustiveLimitEnforced(t *testing.T) {
	avail := make([]int, 20)
	for i := range avail {
		avail[i] = i
	}
	pr := Problem{
		P: 10, Avail: avail,
		Objective: func([]int) float64 { return 0 },
	}
	if _, err := Solve(pr, Options{Strategy: StrategyExhaustive}); err == nil {
		t.Fatal("exhaustive search over 20P10 accepted")
	}
}

// Property: for random load-balancing problems, greedy+local never returns
// a result worse than plain greedy, and both produce valid injective
// assignments covering all fixed slots.
func TestSearchProperties(t *testing.T) {
	f := func(wRaw, sRaw []uint8) bool {
		if len(wRaw) < 1 || len(sRaw) < len(wRaw) {
			return true
		}
		if len(wRaw) > 6 {
			wRaw = wRaw[:6]
		}
		if len(sRaw) > 10 {
			sRaw = sRaw[:10]
		}
		if len(sRaw) < len(wRaw) {
			return true
		}
		w := make([]float64, len(wRaw))
		for i, x := range wRaw {
			w[i] = float64(x%50) + 1
		}
		s := make([]float64, len(sRaw))
		avail := make([]int, len(sRaw))
		for i, x := range sRaw {
			s[i] = float64(x%90) + 1
			avail[i] = i
		}
		pr := Problem{
			P: len(w), Avail: avail, Weights: w,
			SpeedOf:   func(r int) float64 { return s[r] },
			Objective: loadBalanceObjective(w, s),
		}
		g, err := Solve(pr, Options{Strategy: StrategyGreedy})
		if err != nil {
			return false
		}
		gl, err := Solve(pr, Options{Strategy: StrategyGreedyLocal})
		if err != nil {
			return false
		}
		if gl.Time > g.Time+1e-12 {
			return false
		}
		seen := map[int]bool{}
		for _, r := range gl.Ranks {
			if r < 0 || r >= len(s) || seen[r] {
				return false
			}
			seen[r] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
