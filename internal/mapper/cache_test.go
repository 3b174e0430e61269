package mapper

import (
	"fmt"
	"sync"
	"testing"
)

// TestSelectionCacheBound: the cache never exceeds its entry budget, and
// the bookkeeping identity Puts - Evictions == Entries holds.
func TestSelectionCacheBound(t *testing.T) {
	c := NewSelectionCache(lruShards) // one entry per shard
	for i := 0; i < 500; i++ {
		c.values.put([]byte(fmt.Sprintf("key-%d", i)), float64(i))
	}
	st := c.Stats()
	if st.Entries > lruShards {
		t.Fatalf("cache holds %d entries, budget %d", st.Entries, lruShards)
	}
	if st.Puts-st.Evictions != st.Entries {
		t.Fatalf("puts %d - evictions %d != entries %d", st.Puts, st.Evictions, st.Entries)
	}
	if st.Evictions == 0 {
		t.Fatal("500 puts into a 16-entry cache evicted nothing")
	}
}

// TestSelectionCacheLRUOrder: within one shard, a get refreshes recency,
// so the untouched entry is the one evicted.
func TestSelectionCacheLRUOrder(t *testing.T) {
	c := NewSelectionCache(2 * lruShards) // two entries per shard
	// Collect three distinct keys that land in the same shard.
	target := c.values.shard([]byte("seed"))
	var keys [][]byte
	for i := 0; len(keys) < 3; i++ {
		k := []byte(fmt.Sprintf("k%d", i))
		if c.values.shard(k) == target {
			keys = append(keys, k)
		}
	}
	c.values.put(keys[0], 1)
	c.values.put(keys[1], 2)
	if _, ok := c.values.get(keys[0]); !ok { // refresh keys[0]; keys[1] is now LRU
		t.Fatal("keys[0] missing immediately after put")
	}
	c.values.put(keys[2], 3) // shard full: must evict keys[1]
	if _, ok := c.values.get(keys[1]); ok {
		t.Fatal("least-recently-used entry survived eviction")
	}
	if v, ok := c.values.get(keys[0]); !ok || v != 1 {
		t.Fatalf("refreshed entry lost or corrupted: %v %v", v, ok)
	}
	if v, ok := c.values.get(keys[2]); !ok || v != 3 {
		t.Fatalf("newest entry lost or corrupted: %v %v", v, ok)
	}
}

// TestSelectionCacheStats: hit/miss counters and HitRate arithmetic.
func TestSelectionCacheStats(t *testing.T) {
	c := NewSelectionCache(0)
	if got := c.Stats().HitRate(); got != 0 {
		t.Fatalf("hit rate before any lookup = %v", got)
	}
	c.values.put([]byte("a"), 7)
	c.values.get([]byte("a")) // hit
	c.values.get([]byte("a")) // hit
	c.values.get([]byte("b")) // miss
	st := c.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Puts != 1 {
		t.Fatalf("stats %+v, want 2 hits / 1 miss / 1 put", st)
	}
	if want := 2.0 / 3.0; st.HitRate() != want {
		t.Fatalf("hit rate %v, want %v", st.HitRate(), want)
	}
}

// TestSelectionCacheConcurrent hammers one cache from many goroutines;
// run under -race this is the data-race check, and first-value-wins means
// every later read of a key sees the value its first writer stored.
func TestSelectionCacheConcurrent(t *testing.T) {
	c := NewSelectionCache(1 << 10)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := []byte(fmt.Sprintf("key-%d", i%257))
				want := float64(i % 257)
				if v, ok := c.values.get(k); ok && v != want {
					t.Errorf("goroutine %d: key %s = %v, want %v", g, k, v, want)
					return
				}
				c.values.put(k, want)
			}
		}(g)
	}
	wg.Wait()
	c.Stats()
}

// TestSharedCacheMatchesSerial is the promotion-correctness property:
// a Solve using a daemon-style shared cache returns the exact Time and
// Ranks of the serial scan, leaves stay fully accounted for, and a second
// identical search in the same namespace runs almost entirely on hits.
func TestSharedCacheMatchesSerial(t *testing.T) {
	shared := NewSelectionCache(0)
	state := uint64(0xA5A5A5A55A5A5A5A)
	var crossSearchHits int64
	for caseNo := 0; caseNo < 60; caseNo++ {
		pr := randomProblem(&state)
		ns := []byte(fmt.Sprintf("problem-%d/", caseNo))
		want := refExhaustive(pr)
		fixedRanks := map[int]bool{}
		for _, r := range pr.Fixed {
			fixedRanks[r] = true
		}
		leaves := fallingFactorial(len(pr.Avail)-len(fixedRanks), pr.P-len(pr.Fixed))
		for pass := 0; pass < 2; pass++ {
			got, err := Solve(pr, Options{
				Strategy: StrategyExhaustive, Shared: shared, Namespace: ns,
			})
			if err != nil {
				t.Fatalf("case %d pass %d: %v", caseNo, pass, err)
			}
			if got.Time != want.Time || !sameRanks(got.Ranks, want.Ranks) {
				t.Fatalf("case %d pass %d: got (%v, %v), want (%v, %v)",
					caseNo, pass, got.Time, got.Ranks, want.Time, want.Ranks)
			}
			st := got.Stats
			if st.Evaluations+st.CacheHits+st.Pruned != leaves {
				t.Fatalf("case %d pass %d: %d evals + %d hits + %d pruned != %d leaves",
					caseNo, pass, st.Evaluations, st.CacheHits, st.Pruned, leaves)
			}
			if pass == 1 {
				crossSearchHits += st.CacheHits
				if st.CacheHits == 0 && leaves > 1 {
					t.Fatalf("case %d warm pass: no hits over %d leaves", caseNo, leaves)
				}
			}
		}
	}
	if crossSearchHits == 0 {
		t.Fatal("shared cache never produced a cross-search hit")
	}
	if st := shared.Stats(); st.Hits == 0 || st.Puts == 0 {
		t.Fatalf("cache stats never moved: %+v", st)
	}
}

// TestSharedCacheConcurrentSearches: many goroutines solving overlapping
// problems through one shared cache all get the serial answer (-race is
// the memory-safety half, bit-identity the semantic half).
func TestSharedCacheConcurrentSearches(t *testing.T) {
	shared := NewSelectionCache(0)
	state := uint64(0x0123456789ABCDEF)
	type job struct {
		pr   Problem
		ns   []byte
		want Assignment
	}
	var jobs []job
	for i := 0; i < 10; i++ {
		pr := randomProblem(&state)
		jobs = append(jobs, job{pr, []byte(fmt.Sprintf("ns-%d/", i)), refExhaustive(pr)})
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 5; rep++ {
				j := jobs[(g+rep)%len(jobs)]
				got, err := Solve(j.pr, Options{
					Strategy: StrategyExhaustive, Shared: shared, Namespace: j.ns,
				})
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if got.Time != j.want.Time || !sameRanks(got.Ranks, j.want.Ranks) {
					t.Errorf("goroutine %d: got (%v, %v), want (%v, %v)",
						g, got.Time, got.Ranks, j.want.Time, j.want.Ranks)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSharedCacheHeuristicStrategies: the cache also serves the
// non-exhaustive strategies (objective wrapping): results stay identical
// to uncached runs, and a repeated search runs on hits.
func TestSharedCacheHeuristicStrategies(t *testing.T) {
	state := uint64(0xDEADBEEFCAFEF00D)
	for _, strat := range []Strategy{StrategyGreedyLocal, StrategyRandomBest} {
		shared := NewSelectionCache(0)
		for caseNo := 0; caseNo < 20; caseNo++ {
			pr := randomProblem(&state)
			ns := []byte(fmt.Sprintf("h-%d/", caseNo))
			want, err := Solve(pr, Options{Strategy: strat})
			if err != nil {
				t.Fatalf("strategy %v case %d: %v", strat, caseNo, err)
			}
			for pass := 0; pass < 2; pass++ {
				got, err := Solve(pr, Options{Strategy: strat, Shared: shared, Namespace: ns})
				if err != nil {
					t.Fatalf("strategy %v case %d pass %d: %v", strat, caseNo, pass, err)
				}
				if got.Time != want.Time || !sameRanks(got.Ranks, want.Ranks) {
					t.Fatalf("strategy %v case %d pass %d: got (%v, %v), want (%v, %v)",
						strat, caseNo, pass, got.Time, got.Ranks, want.Time, want.Ranks)
				}
			}
		}
		if st := shared.Stats(); st.Hits == 0 {
			t.Fatalf("strategy %v: shared cache never hit: %+v", strat, st)
		}
	}
}

// TestSharedCacheRequiresNamespace: a shared cache without a namespace is
// the cross-cluster aliasing bug waiting to happen, so Solve refuses it.
func TestSharedCacheRequiresNamespace(t *testing.T) {
	w := []float64{3, 1}
	s := []float64{1, 2, 4}
	pr := Problem{
		P: 2, Avail: []int{0, 1, 2}, Weights: w,
		SpeedOf:      func(r int) float64 { return s[r] },
		Objective:    loadBalanceObjective(w, s),
		CanonicalKey: loadBalanceKey(s),
	}
	if _, err := Solve(pr, Options{Strategy: StrategyExhaustive, Shared: NewSelectionCache(0)}); err == nil {
		t.Fatal("Solve accepted a Shared cache without a Namespace")
	}
	if _, err := Solve(pr, Options{
		Strategy: StrategyExhaustive, Shared: NewSelectionCache(0), Namespace: []byte("x/"),
	}); err != nil {
		t.Fatalf("Solve rejected a namespaced shared cache: %v", err)
	}
}

// TestNamespaceCollisionRegression is the satellite (b) regression: two
// problems with byte-identical canonical keys but different cost models
// (think: same machine shapes, different network) share one cache. Under
// distinct namespaces both searches return their own reference answer;
// the control leg shows that without the namespace split the second
// search would inherit the first problem's cached values and return a
// wrong makespan — exactly the aliasing the namespace exists to prevent.
func TestNamespaceCollisionRegression(t *testing.T) {
	w := []float64{5, 3, 2}
	s := []float64{1, 1, 2, 2, 4}
	avail := []int{0, 1, 2, 3, 4}
	base := Problem{
		P: 3, Avail: avail, Weights: w,
		SpeedOf:      func(r int) float64 { return s[r] },
		Objective:    loadBalanceObjective(w, s),
		CanonicalKey: loadBalanceKey(s),
	}
	// Same key function, shifted objective: stands in for a cluster with
	// identical machine classes but different link costs.
	shifted := base
	shifted.Objective = func(cand []int) float64 {
		return loadBalanceObjective(w, s)(cand) + 100
	}
	wantBase := refExhaustive(base)
	wantShifted := refExhaustive(shifted)
	if wantBase.Time == wantShifted.Time {
		t.Fatal("fixture broken: the two problems must disagree on Time")
	}

	t.Run("distinct namespaces never alias", func(t *testing.T) {
		shared := NewSelectionCache(0)
		a, err := Solve(base, Options{Strategy: StrategyExhaustive, Shared: shared, Namespace: []byte("clusterA/")})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Solve(shifted, Options{Strategy: StrategyExhaustive, Shared: shared, Namespace: []byte("clusterB/")})
		if err != nil {
			t.Fatal(err)
		}
		if a.Time != wantBase.Time {
			t.Fatalf("cluster A: got %v, want %v", a.Time, wantBase.Time)
		}
		if b.Time != wantShifted.Time {
			t.Fatalf("cluster B aliased cluster A's entries: got %v, want %v", b.Time, wantShifted.Time)
		}
	})

	t.Run("same namespace demonstrably aliases", func(t *testing.T) {
		shared := NewSelectionCache(0)
		if _, err := Solve(base, Options{Strategy: StrategyExhaustive, Shared: shared, Namespace: []byte("one/")}); err != nil {
			t.Fatal(err)
		}
		b, err := Solve(shifted, Options{Strategy: StrategyExhaustive, Shared: shared, Namespace: []byte("one/")})
		if err != nil {
			t.Fatal(err)
		}
		if b.Time == wantShifted.Time {
			t.Fatal("control leg lost its teeth: reusing one namespace across cost models no longer aliases")
		}
	})
}

// TestSolveMemo covers the solve layer: a repeated Solve with the same
// MemoKey is served without running any search, bit-identical to the
// search it replaces, counters included; distinct MemoKeys never alias;
// and the memo hands out copies, so callers mutating Ranks cannot corrupt
// the store.
func TestSolveMemo(t *testing.T) {
	w := []float64{5, 3, 2}
	s := []float64{1, 1, 2, 2, 4}
	base := Problem{
		P: 3, Avail: []int{0, 1, 2, 3, 4}, Weights: w,
		SpeedOf:      func(r int) float64 { return s[r] },
		Objective:    loadBalanceObjective(w, s),
		CanonicalKey: loadBalanceKey(s),
	}
	shifted := base
	shifted.Objective = func(cand []int) float64 {
		return loadBalanceObjective(w, s)(cand) + 100
	}
	wantBase := refExhaustive(base)
	wantShifted := refExhaustive(shifted)

	shared := NewSelectionCache(0)
	opts := Options{
		Strategy:  StrategyExhaustive,
		Shared:    shared,
		Namespace: []byte("clusterA/"),
		MemoKey:   []byte("memo-A"),
	}

	cold, err := Solve(base, opts)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Stats.Memoized {
		t.Fatal("first solve claims to be memoised")
	}
	if cold.Time != wantBase.Time {
		t.Fatalf("cold solve time %v, want %v", cold.Time, wantBase.Time)
	}

	warm, err := Solve(base, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.Stats.Memoized {
		t.Fatal("repeated solve ran the search instead of the memo")
	}
	// A hit reports the search that produced it, and says it is a hit.
	want := cold.Stats
	want.Memoized = true
	if warm.Stats != want || want.Evaluations == 0 {
		t.Fatalf("memoised solve reports %+v, the search was %+v", warm.Stats, cold.Stats)
	}
	if warm.Time != cold.Time || fmt.Sprint(warm.Ranks) != fmt.Sprint(cold.Ranks) {
		t.Fatalf("memoised solve differs: %v/%v vs %v/%v", warm.Ranks, warm.Time, cold.Ranks, cold.Time)
	}
	st := shared.Stats()
	if st.SolveHits != 1 || st.SolveMisses != 1 || st.SolveEntries != 1 {
		t.Fatalf("solve counters %+v, want 1 hit / 1 miss / 1 entry", st)
	}
	if st.SolveHitRate() != 0.5 {
		t.Fatalf("solve hit rate %v, want 0.5", st.SolveHitRate())
	}

	// The memo hands out copies: trashing a returned assignment must not
	// leak into later hits.
	for i := range warm.Ranks {
		warm.Ranks[i] = -1
	}
	again, err := Solve(base, opts)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(again.Ranks) != fmt.Sprint(cold.Ranks) {
		t.Fatalf("memo store corrupted by caller mutation: %v", again.Ranks)
	}

	// A different cost model under a different MemoKey must not inherit
	// cluster A's assignment even though the problem shape is identical.
	optsB := opts
	optsB.Namespace = []byte("clusterB/")
	optsB.MemoKey = []byte("memo-B")
	b, err := Solve(shifted, optsB)
	if err != nil {
		t.Fatal(err)
	}
	if b.Stats.Memoized {
		t.Fatal("distinct MemoKey aliased into cluster A's memo")
	}
	if b.Time != wantShifted.Time {
		t.Fatalf("cluster B time %v, want %v", b.Time, wantShifted.Time)
	}
}
