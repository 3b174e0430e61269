// SelectionCache: the one store of what group selection has already
// worked out, at two grains — the objective value of a candidate and the
// assignment a whole search returned.
//
// Correctness has two legs:
//
//   - Within one namespace, equal keys guarantee bit-identical objective
//     values (the CanonicalKey contract), so a hit returns exactly what
//     the evaluation would have — search results never depend on the
//     cache's content, only its speed. Eviction is therefore always safe.
//   - Across problems, equal canonical keys guarantee nothing: the key
//     encodes the candidate's shape (machine classes, co-location,
//     speeds), not the cluster's link costs or the model's task graph.
//     Two jobs on different clusters can produce byte-identical keys with
//     different objective values. Every entry is therefore stored under a
//     namespace prefix identifying the full cost model (see
//     estimator.AppendNamespace); Solve refuses a Shared cache without
//     one.
package mapper

import (
	"encoding/binary"
	"slices"
	"sync"
)

// lruShards is the number of independently locked segments of an lru.
// Sharding keeps the search workers' leaf lookups from serialising on one
// mutex.
const (
	lruShardBits = 4
	lruShards    = 1 << lruShardBits
)

// DefaultSelectionCacheEntries bounds a NewSelectionCache(0) cache.
const DefaultSelectionCacheEntries = 1 << 16

// SelectionCache is a size-bounded memo of group selection, safe for
// concurrent use by any number of searches: objective values by
// namespace-qualified canonical candidate key, and solved problems by a
// digest of the problem, the options and the caller's Options.MemoKey.
// The value layer makes a repeated search skip its objective evaluations;
// the solve layer makes it skip the search walk itself, and whatever the
// caller would have built to run it. The zero value is not usable; create
// one with NewSelectionCache.
type SelectionCache struct {
	values lru[float64]
	solves lru[Assignment]
}

// NewSelectionCache creates a cache bounded to at most `entries` keys per
// layer (rounded up to a multiple of the shard count; entries <= 0 means
// DefaultSelectionCacheEntries). Each value costs roughly its key length
// plus ~100 bytes of bookkeeping, and nothing is allocated for a shard
// until it holds one.
func NewSelectionCache(entries int) *SelectionCache {
	if entries <= 0 {
		entries = DefaultSelectionCacheEntries
	}
	per := (entries + lruShards - 1) / lruShards
	c := new(SelectionCache)
	c.values.cap, c.solves.cap = per, per
	return c
}

// lru is a size-bounded map from byte-string keys to V in lruShards
// locked segments, each evicting its least recently used entry when full.
// Storing under an existing key keeps the first value: values of equal
// keys are identical by the contracts above, so which one wins is moot.
type lru[V any] struct {
	cap    int // entries per shard
	shards [lruShards]lruShard[V]
}

type lruShard[V any] struct {
	mu                      sync.Mutex
	m                       map[string]*lruEntry[V]
	first, last             *lruEntry[V] // the most and the least recently used
	hits, miss, puts, evict int64
}

type lruEntry[V any] struct {
	key        string
	val        V
	prev, next *lruEntry[V]
}

// unlink takes e out of the recency list.
func (sh *lruShard[V]) unlink(e *lruEntry[V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		sh.first = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		sh.last = e.prev
	}
}

// pushFront makes the unlinked e the most recently used entry.
func (sh *lruShard[V]) pushFront(e *lruEntry[V]) {
	e.prev, e.next = nil, sh.first
	if sh.first != nil {
		sh.first.prev = e
	} else {
		sh.last = e
	}
	sh.first = e
}

// shard hashes a key to its segment: FNV-1a over eight-byte words (a leaf
// lookup hashes ~80 bytes, and byte-at-a-time was half its cost), the top
// bits because a product's low bits see only its factors' low bits.
func (c *lru[V]) shard(key []byte) *lruShard[V] {
	h := uint64(14695981039346656037)
	for ; len(key) >= 8; key = key[8:] {
		h = (h ^ binary.LittleEndian.Uint64(key)) * 1099511628211
	}
	for _, b := range key {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return &c.shards[h>>(64-lruShardBits)]
}

// get looks a key up, promoting it to most recently used on a hit.
func (c *lru[V]) get(key []byte) (val V, ok bool) {
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.m[string(key)]
	if !ok {
		sh.miss++
		return val, false
	}
	sh.hits++
	sh.unlink(e)
	sh.pushFront(e)
	return e.val, true
}

// put inserts a key, evicting the shard's least recently used entry when
// full.
func (c *lru[V]) put(key []byte, val V) {
	sh := c.shard(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if e, ok := sh.m[string(key)]; ok {
		sh.unlink(e)
		sh.pushFront(e)
		return
	}
	if sh.m == nil {
		sh.m = make(map[string]*lruEntry[V])
	}
	sh.puts++
	e := &lruEntry[V]{key: string(key), val: val}
	sh.m[e.key] = e
	sh.pushFront(e)
	if len(sh.m) > c.cap {
		delete(sh.m, sh.last.key)
		sh.unlink(sh.last)
		sh.evict++
	}
}

// count sums the shards' counters and populations. The snapshot is not
// atomic across shards (concurrent searches may land between shard
// reads), which is fine for the monitoring it serves.
func (c *lru[V]) count() (hits, miss, puts, evict, entries int64) {
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		hits += sh.hits
		miss += sh.miss
		puts += sh.puts
		evict += sh.evict
		entries += int64(len(sh.m))
		sh.mu.Unlock()
	}
	return
}

// solved is the one way to a solved problem: the assignment stored under
// key — marked Memoized, its counters those of the search that produced
// it — or, on a miss, what search returns, which is stored unless it
// failed. The caller gets its own copy of the ranks either way.
func (c *SelectionCache) solved(key []byte, search func() (Assignment, error)) (Assignment, error) {
	a, ok := c.solves.get(key)
	if ok {
		a.Stats.Memoized = true
	} else {
		var err error
		if a, err = search(); err != nil {
			return a, err
		}
		c.solves.put(key, a)
	}
	a.Ranks = slices.Clone(a.Ranks)
	return a, nil
}

// sharedObjective returns pr with its Objective routed through the shared
// cache: each evaluation first looks its canonical key up under the
// namespace, and misses store the computed value. This is how the
// heuristic strategies (greedy, local search, random sampling) reuse the
// cache — the exhaustive engine instead wires the cache into its leaf
// loop, where it can also keep exact leaf accounting. Values for equal
// keys are bit-identical by the CanonicalKey contract, so wrapped and
// unwrapped searches return identical results. The wrapper owns its key
// buffer: like the heuristic that calls it, it runs on one goroutine.
func sharedObjective(pr Problem, shared *SelectionCache, ns []byte) Problem {
	obj, key := pr.Objective, pr.CanonicalKey
	var buf []byte
	pr.Objective = func(cand []int) float64 {
		buf = key(append(buf[:0], ns...), cand)
		v, ok := shared.values.get(buf)
		if !ok {
			v = obj(cand)
			shared.values.put(buf, v)
		}
		return v
	}
	return pr
}

// CacheStats is a point-in-time snapshot of a SelectionCache's counters.
type CacheStats struct {
	// Hits and Misses count value lookups by outcome, across every search
	// that used the cache since creation (or the last Reset).
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Puts counts value insertions; Evictions counts values dropped to
	// respect the size bound. Entries is the current population.
	Puts      int64 `json:"puts"`
	Evictions int64 `json:"evictions"`
	Entries   int64 `json:"entries"`
	// SolveHits, SolveMisses and SolveEntries are the solve layer's
	// counters: a SolveHit is an entire selection search skipped, a
	// SolveMiss one that ran.
	SolveHits    int64 `json:"solve_hits"`
	SolveMisses  int64 `json:"solve_misses"`
	SolveEntries int64 `json:"solve_entries"`
}

// HitRate returns Hits/(Hits+Misses), or 0 before any lookup — the
// value layer's rate, dominated by within-search symmetry reuse.
func (s CacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// SolveHitRate returns the solve layer's rate: the fraction of selection
// searches skipped outright. This is the figure that says how often
// repeated job specs were served from the warm cache.
func (s CacheStats) SolveHitRate() float64 {
	if s.SolveHits+s.SolveMisses == 0 {
		return 0
	}
	return float64(s.SolveHits) / float64(s.SolveHits+s.SolveMisses)
}

// Stats snapshots both layers' counters.
func (c *SelectionCache) Stats() CacheStats {
	var out CacheStats
	out.Hits, out.Misses, out.Puts, out.Evictions, out.Entries = c.values.count()
	out.SolveHits, out.SolveMisses, _, _, out.SolveEntries = c.solves.count()
	return out
}
