package mpi

import (
	"encoding/binary"
	"math/bits"
	"sync"

	"repro/internal/hnoc"
	"repro/internal/vclock"
)

// Collective algorithm selection. Every collective with more than one
// implementation consults its communicator's CollTuning to pick one; the
// zero value of every algorithm field is the classic algorithm of
// early-2000s MPI libraries. The Auto constants run the algorithm the
// replay prices cheapest on the calling communicator (see resolve) where
// MPICH-G2 tiers its collectives by size and topology.
//
// Selection is policy, not negotiation: every member of a communicator
// must run the same CollTuning (collectives must agree on the
// communication pattern or they deadlock). Tuning is inherited — World ->
// CommWorld -> Dup/Split/Create/Shrink — so installing a policy once on
// the world before Run covers every communicator derived later.

// AllreduceAlg selects the Allreduce implementation.
type AllreduceAlg int

const (
	// AllreduceRedBcast is the default algorithm: binomial reduce to rank
	// 0, then binomial broadcast.
	AllreduceRedBcast AllreduceAlg = iota
	// AllreduceRecursiveDoubling exchanges full vectors along hypercube
	// dimensions: log2(n) rounds, latency-optimal for small messages.
	AllreduceRecursiveDoubling
	// AllreduceRing is the Rabenseifner-style ring: a reduce-scatter ring
	// followed by an allgather ring. Each rank moves 2(n-1)/n of the
	// vector instead of the full vector log(n) times: bandwidth-optimal
	// for large messages. Requires len(data) divisible by the 8-byte
	// element width.
	AllreduceRing
	// AllreduceAuto picks the cheapest by replay of recursive doubling,
	// the ring and, on two levels, the hierarchical algorithm.
	AllreduceAuto
	// AllreduceHier is the two-level algorithm: binomial reduce to each
	// machine's leader over the node tier, Allreduce among leaders over
	// the net tier, broadcast back over the node tier. Falls back to the
	// Auto resolution on communicators without a two-level structure.
	AllreduceHier
)

// ReduceScatterAlg selects the ReduceScatter implementation.
type ReduceScatterAlg int

const (
	// ReduceScatterViaRoot is the default algorithm: concatenate, reduce
	// to rank 0, scatter the slices.
	ReduceScatterViaRoot ReduceScatterAlg = iota
	// ReduceScatterPairwise runs n-1 pairwise exchange steps in which
	// each rank only ever sends the block destined for its peer — nothing
	// is concatenated through rank 0.
	ReduceScatterPairwise
	// ReduceScatterAuto picks pairwise (it dominates the via-root
	// algorithm at every size on a switched network), or on a two-level
	// communicator the hierarchical algorithm when it replays cheaper.
	ReduceScatterAuto
	// ReduceScatterHier is the two-level algorithm: node-tier reduce to
	// the machine leader, pairwise exchange of machine blocks over the
	// net tier, node-tier scatter. Falls back to the Auto resolution on
	// communicators without a two-level structure.
	ReduceScatterHier
)

// BcastAlg selects the Bcast implementation.
type BcastAlg int

const (
	// BcastBinomial is the default algorithm: the whole payload travels a
	// binomial tree.
	BcastBinomial BcastAlg = iota
	// BcastSegmented pipelines the payload through the binomial tree in
	// 16 KiB segments, so an interior rank forwards segment k while
	// segment k+1 is still in flight to it.
	BcastSegmented
	// BcastAuto keeps the binomial tree, except on a two-level
	// communicator where the hierarchical broadcast replays cheaper. Only
	// the root knows the payload length, so where hier can win at all the
	// root sends its choice down a small header tree first.
	BcastAuto
	// BcastHier is the two-level algorithm: the root hands its payload to
	// its machine leader, the leaders broadcast over the net tier, each
	// leader fans out over its node tier. Falls back to the Auto
	// resolution on communicators without a two-level structure.
	BcastHier
)

// GatherAlg selects the Gather implementation.
type GatherAlg int

const (
	// GatherFlat is the default algorithm: every member sends directly to
	// the root.
	GatherFlat GatherAlg = iota
	// GatherBinomial combines contributions up a binomial tree, so the
	// root absorbs log2(n) messages instead of n-1.
	GatherBinomial
	// GatherAuto picks the flat fan, or on a two-level communicator the
	// hierarchical gather when it replays cheaper.
	GatherAuto
	// GatherHier is the two-level algorithm: node-tier gather onto each
	// machine's leader, net-tier gather of per-machine bundles onto the
	// root machine's leader, one intra-machine hop to the root. Falls
	// back to the Auto resolution on communicators without a two-level
	// structure.
	GatherHier
)

// ScatterAlg selects the Scatter implementation.
type ScatterAlg int

const (
	// ScatterFlat is the default algorithm: the root sends each part
	// directly to its member.
	ScatterFlat ScatterAlg = iota
	// ScatterBinomial sends bundles of parts down a binomial tree;
	// interior ranks split their bundle onward.
	ScatterBinomial
	// ScatterAuto picks the binomial tree for parts of at most 1 KiB on at
	// least 8 members, the flat fan otherwise.
	ScatterAuto
)

// CollTuning is the per-communicator collective algorithm policy: one
// selector per collective with more than one algorithm. The zero value
// selects the default algorithm everywhere.
type CollTuning struct {
	Allreduce     AllreduceAlg
	ReduceScatter ReduceScatterAlg
	Bcast         BcastAlg
	Gather        GatherAlg
	Scatter       ScatterAlg
}

// The splitting granularities and Scatter's Auto rule: fixed, because no
// placement moves them.
const (
	// segSize is the segment of the pipelined broadcast.
	segSize = 16 << 10
	// treeMinRanks and treeMaxBytes: ScatterAuto picks the binomial tree
	// on at least treeMinRanks members with parts of at most treeMaxBytes
	// (above it the tree moves asymptotically more bytes than the flat
	// fan).
	treeMinRanks = 8
	treeMaxBytes = 1 << 10
	// elemSize is the reduction element width (every Op's): the ring cuts
	// the vector only on multiples of it.
	elemSize = 8
)

// defaultCollTuning is the policy of communicators with no explicit one.
var defaultCollTuning = CollTuning{}

// AutoCollTuning returns a policy with size-aware selection enabled for
// every collective.
func AutoCollTuning() *CollTuning {
	return &CollTuning{AllreduceAuto, ReduceScatterAuto, BcastAuto, GatherAuto, ScatterAuto}
}

// coll returns the tuning in effect for this communicator.
func (c *Comm) coll() *CollTuning {
	if c.tuning != nil {
		return c.tuning
	}
	return &defaultCollTuning
}

// resolve returns the algorithm collective c (CollCall.Coll) runs on view
// v. A forced algorithm stands, except a hierarchical one on a view
// without two levels, which falls back to Auto. Auto runs the candidate
// the replay prices cheapest (see cheapest): the flat algorithm, the ring for
// an Allreduce on more than two members of an element-aligned length, the
// hierarchical algorithm on two levels. bytes is the payload priced: the
// own payload, a reducescatter's mean part (the parts are agreed), a
// broadcast root's payload. No threshold: right on every communicator.
func (p *plan) resolve(v view, c string, bytes, root int) int {
	alg, auto, hier, flat := p.t.rules(c)
	if alg != auto && alg != hier {
		return alg // the structure is asked only when hier could be picked
	}
	two := p.twoLevel(v)
	cands := append(make([]int, 0, 3), flat)
	if c == "allreduce" && bytes%elemSize == 0 && v.size > 2 {
		cands = append(cands, int(AllreduceRing))
	}
	switch {
	case alg == hier && two:
		return alg
	case two:
		cands = append(cands, hier)
	case len(cands) == 1:
		return flat
	}
	return p.cheapest(v, c, bytes, root, cands)
}

// bcastSized reports whether a broadcast's lists need the payload length,
// which only the root knows and then sends down a header tree: the forced
// pipeline cuts by it, forced hier on two levels keeps the header, and
// Auto on two levels needs it when hier replays cheaper than the binomial
// tree at some size of a fixed grid. Every other broadcast is the binomial
// tree on every member, decided without a message.
func (p *plan) bcastSized(v view, root int) bool {
	switch p.t.Bcast {
	case BcastSegmented:
		return true
	case BcastHier:
		return p.twoLevel(v)
	case BcastAuto:
		return p.twoLevel(v) && p.cheapest(v, "header", 0, root, []int{int(BcastBinomial), int(BcastHier)}) == int(BcastHier)
	}
	return false
}

// resolveScatter resolves Auto at the root, the only rank that sees the
// part sizes (they may be irregular): a binomial tree of bundles beats the
// flat fan when per-message overhead dominates — enough ranks, small
// enough parts.
func (t *CollTuning) resolveScatter(n, maxPart int) ScatterAlg {
	if t.Scatter != ScatterAuto {
		return t.Scatter
	}
	if n >= treeMinRanks && maxPart <= treeMaxBytes {
		return ScatterBinomial
	}
	return ScatterFlat
}

// rules returns t's selector of collective c, its Auto value, its
// hierarchical algorithm and the flat algorithm every view can run.
func (t *CollTuning) rules(c string) (alg, auto, hier, flat int) {
	switch c {
	case "allreduce":
		return int(t.Allreduce), int(AllreduceAuto), int(AllreduceHier), int(AllreduceRecursiveDoubling)
	case "reducescatter":
		return int(t.ReduceScatter), int(ReduceScatterAuto), int(ReduceScatterHier), int(ReduceScatterPairwise)
	case "gather":
		return int(t.Gather), int(GatherAuto), int(GatherHier), int(GatherFlat)
	}
	return int(t.Bcast), int(BcastAuto), int(BcastHier), int(BcastBinomial)
}

// with returns a copy of t with collective c's selector forced to alg.
func (t CollTuning) with(c string, alg int) *CollTuning {
	switch c {
	case "allreduce":
		t.Allreduce = AllreduceAlg(alg)
	case "reducescatter":
		t.ReduceScatter = ReduceScatterAlg(alg)
	case "gather":
		t.Gather = GatherAlg(alg)
	default:
		t.Bcast = BcastAlg(alg)
	}
	return &t
}

// autoMemo holds every choice Auto has priced: one per World, and one per
// call of Replay outside a World. An entry is keyed by what its replay
// reads — the collective ("header": does a broadcast need one), the
// policy, the size, the root and the machines of the view's members — and
// filled once, so every member of a view reads the same choice even if the
// links change during a run.
type autoMemo struct {
	link func(a, b int) hnoc.LinkSpec
	mu   sync.Mutex
	m    map[string]*autoChoice
}

type autoChoice struct {
	once sync.Once // the first member prices the choice, the others wait for it
	alg  int
}

// cheapest returns the candidate whose forced run of c on view v replays
// cheapest, the earliest on a tie. Pricing a hierarchical candidate
// resolves its tiers' own Auto choices through the same memo: entries of
// smaller views, so no entry waits for itself.
func (p *plan) cheapest(v view, c string, bytes, root int, cands []int) int {
	var kb [128]byte
	k := append(append(kb[:0], c...), 0, byte(p.t.Allreduce), byte(p.t.ReduceScatter), byte(p.t.Bcast), byte(p.t.Gather), byte(p.t.Scatter))
	k = binary.AppendUvarint(binary.AppendUvarint(k, uint64(bytes)), uint64(root))
	for i := 0; i < v.size; i++ {
		k = binary.AppendUvarint(k, uint64(p.machine(v.rank(i))))
	}
	m := p.memo
	m.mu.Lock()
	e := m.m[string(k)]
	if e == nil {
		if m.m == nil {
			m.m = make(map[string]*autoChoice)
		}
		e = &autoChoice{}
		m.m[string(k)] = e
	}
	m.mu.Unlock()
	e.once.Do(func() {
		place := make([]int, v.size)
		for i := range place {
			place[i] = p.machine(v.rank(i))
		}
		if c != "header" {
			e.alg = m.argmin(place, c, bytes, root, *p.t, cands, c == "bcast")
			return
		}
		// A broadcast needs a header when hier, header included, replays
		// cheaper than the binomial tree without one at some size of a fixed
		// grid: four sizes per octave from 1 B to 64 MiB.
		for x := 1; x <= 1<<26 && e.alg != int(BcastHier); x += max(1, 1<<bits.Len(uint(x))>>3) {
			e.alg = m.argmin(place, "bcast", x, root, *p.t, cands, false)
		}
	})
	return e.alg
}

// argmin replays c on the machines place with each candidate forced and
// returns the cheapest, the earliest on a tie. With hdr the broadcast's
// root sends its header ahead of every candidate, as it does ahead of the
// one it picks.
func (m *autoMemo) argmin(place []int, c string, bytes, root int, t CollTuning, cands []int, hdr bool) int {
	best, bestTime := -1, vclock.Time(0)
	for _, alg := range cands {
		d, err := Replay(m.link, place, CollCall{Coll: c, Bytes: bytes, Root: root, Tuning: t.with(c, alg), memo: m, hdr: hdr})
		if err != nil {
			panic(err) // the candidates' lists do not fit together: a builder bug
		}
		if best < 0 || d < bestTime {
			best, bestTime = alg, d
		}
	}
	return best
}
