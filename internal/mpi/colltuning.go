package mpi

import (
	"fmt"
	"math"
)

// Collective algorithm selection. Every collective with more than one
// implementation consults its communicator's CollTuning to pick one; the
// zero value of every algorithm field is the default algorithm — the
// classic one of early-2000s MPI libraries, and still the default here:
// Auto's hierarchical bands are right where estimator.AutoCollTuningFor
// derived them for a placement, not at their defaults everywhere. The
// Auto constants enable size- and communicator-aware selection in the
// style of MPICH-G2's topology/size-tiered collectives: small messages
// keep latency-optimal trees, large messages switch to bandwidth-optimal
// rings, and a flat rule is kept only where a measured row supports it.
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
	// AllreduceAuto picks recursive doubling below 32 KiB and the ring at
	// or above it (falling back when the length is not element-aligned);
	// on a communicator with a two-level structure it picks the
	// hierarchical algorithm at or above AllreduceHierMinBytes.
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
	// algorithm at every size on a switched network), switching to the
	// hierarchical algorithm on two-level communicators at or above
	// ReduceScatterHierMinBytes total payload.
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
	// BcastAuto keeps the binomial tree, except within the
	// [BcastHierMinBytes, BcastHierMaxBytes] band on a two-level
	// communicator, where it picks the hierarchical broadcast. Only the
	// root knows the payload length, so only there does the root send its
	// choice down a small header tree first.
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
	// GatherAuto picks the hierarchical gather on a two-level
	// communicator when the local payload is at most GatherHierMaxBytes,
	// and the flat fan otherwise.
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

// CollTuning is the per-communicator collective algorithm policy: five
// selectors and the five thresholds of the hierarchical bands (what
// estimator.AutoCollTuningFor derives per placement). The zero value
// selects the default algorithm everywhere with the default thresholds.
type CollTuning struct {
	Allreduce     AllreduceAlg
	ReduceScatter ReduceScatterAlg
	Bcast         BcastAlg
	Gather        GatherAlg
	Scatter       ScatterAlg

	// AllreduceHierMinBytes is the payload size at which AllreduceAuto
	// switches to the hierarchical algorithm on a two-level communicator.
	// Zero means the default (64 KiB).
	AllreduceHierMinBytes int
	// BcastHierMinBytes is the payload size at which BcastAuto switches
	// to the hierarchical broadcast on a two-level communicator. Zero
	// means the default (64 KiB); math.MaxInt empties the band (no header).
	BcastHierMinBytes int
	// BcastHierMaxBytes is the largest payload for which BcastAuto keeps
	// the hierarchical broadcast: at very large payloads the hierarchy's
	// extra root-to-leader copy of the full vector can outweigh the tree
	// depth it saves — its win region is a band, not a half-line. Zero
	// means the default (no upper bound).
	BcastHierMaxBytes int
	// GatherHierMaxBytes is the largest per-member payload for which
	// GatherAuto picks the hierarchical gather on a two-level
	// communicator (above it the leaders' store-and-forward staging
	// costs more than the flat fan saves in per-message overhead). Zero
	// means the default (64 KiB).
	GatherHierMaxBytes int
	// ReduceScatterHierMinBytes is the total payload size at which
	// ReduceScatterAuto switches to the hierarchical algorithm on a
	// two-level communicator. Zero means the default (64 KiB).
	ReduceScatterHierMinBytes int
}

// The flat Auto rules and the splitting granularities: fixed, because no
// placement moves them.
const (
	// ringMinBytes: AllreduceAuto picks the ring at or above it.
	ringMinBytes = 32 << 10
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

// Default thresholds of the hierarchical bands; see the CollTuning field
// docs.
const (
	defaultAllreduceHierMinBytes     = 64 << 10
	defaultBcastHierMinBytes         = 64 << 10
	defaultBcastHierMaxBytes         = math.MaxInt
	defaultGatherHierMaxBytes        = 64 << 10
	defaultReduceScatterHierMinBytes = 64 << 10
)

// threshold resolves one CollTuning threshold field: zero selects the
// library default (the zero value of CollTuning is the documented
// "defaults everywhere" policy, so an unset field cannot be told apart
// from an explicit zero — explicit zero IS "use the default"). A negative
// value can only be an explicit override, and no threshold has a
// meaningful negative interpretation, so it fails loudly.
func threshold(v, def int, name string) int {
	if v < 0 {
		panic(fmt.Sprintf("mpi: CollTuning.%s must not be negative (got %d); zero selects the default", name, v))
	}
	if v > 0 {
		return v
	}
	return def
}

// defaultCollTuning is the policy of communicators with no explicit one.
var defaultCollTuning = CollTuning{}

// AutoCollTuning returns a policy with size-aware selection enabled for
// every collective, at the default thresholds.
func AutoCollTuning() *CollTuning {
	return &CollTuning{
		Allreduce:     AllreduceAuto,
		ReduceScatter: ReduceScatterAuto,
		Bcast:         BcastAuto,
		Gather:        GatherAuto,
		Scatter:       ScatterAuto,
	}
}

// coll returns the tuning in effect for this communicator.
func (c *Comm) coll() *CollTuning {
	if c.tuning != nil {
		return c.tuning
	}
	return &defaultCollTuning
}

// The resolve methods turn the policy into the algorithm one call runs,
// from what every member agrees on: the member count, the payload size and
// whether the communicator has a two-level structure (a structure — asked
// only when the policy could pick a hierarchical algorithm, and never two
// levels on a tier communicator).

// structure answers whether a communicator has two levels.
type structure interface{ twoLevel() bool }

// flat is the structure of a communicator that has one level.
type flat struct{}

func (flat) twoLevel() bool { return false }

// hierOr is the part of a resolution four collectives share. A forced
// algorithm stands — except the hierarchical one on a communicator
// without two levels, which falls back to Auto (the viability answer is
// agreed, so the fallback is too) — and Auto picks the hierarchy when the
// payload is in its band and the communicator has two levels. done is
// false when the flat size rule is left to decide.
func hierOr[A comparable](alg, hier, auto A, inBand bool, on structure) (resolved A, done bool) {
	if alg == hier {
		if on.twoLevel() {
			return hier, true
		}
		alg = auto
	}
	if alg != auto {
		return alg, true
	}
	return hier, inBand && on.twoLevel()
}

func (t *CollTuning) resolveAllreduce(n, nbytes int, on structure) AllreduceAlg {
	inBand := nbytes >= threshold(t.AllreduceHierMinBytes, defaultAllreduceHierMinBytes, "AllreduceHierMinBytes")
	if alg, done := hierOr(t.Allreduce, AllreduceHier, AllreduceAuto, inBand, on); done {
		return alg
	}
	if nbytes >= ringMinBytes && nbytes%elemSize == 0 && n > 2 {
		return AllreduceRing
	}
	return AllreduceRecursiveDoubling
}

// resolveBcast is the root-side resolution (only the root knows the
// payload size); the choice travels down the tree in the bcast header.
// Auto's flat choice is the binomial tree: segmenting loses on every
// measured row (a sender injects the payload once per child either way).
func (t *CollTuning) resolveBcast(nbytes int, on structure) BcastAlg {
	inBand := nbytes >= threshold(t.BcastHierMinBytes, defaultBcastHierMinBytes, "BcastHierMinBytes") &&
		nbytes <= threshold(t.BcastHierMaxBytes, defaultBcastHierMaxBytes, "BcastHierMaxBytes")
	if alg, done := hierOr(t.Bcast, BcastHier, BcastAuto, inBand, on); done {
		return alg
	}
	return BcastBinomial
}

// bcastSized reports whether a broadcast's lists need the payload length,
// which only the root knows and then sends down a header tree: the forced
// pipeline cuts by it, and on two levels Auto (unless its band is empty)
// resolves by it and forced hier keeps the header. Every other policy is
// the binomial tree on every member, decided without a message.
func (t *CollTuning) bcastSized(on structure) bool {
	auto := t.Bcast == BcastAuto && threshold(t.BcastHierMinBytes, defaultBcastHierMinBytes, "BcastHierMinBytes") != math.MaxInt
	return t.Bcast == BcastSegmented || (auto || t.Bcast == BcastHier) && on.twoLevel()
}

// resolveGather keys on the local payload size, so Auto requires agreed
// sizes — pick the algorithm explicitly for irregular gathers. Auto's flat
// choice is the flat fan, the fastest on every measured row.
func (t *CollTuning) resolveGather(nbytes int, on structure) GatherAlg {
	inBand := nbytes <= threshold(t.GatherHierMaxBytes, defaultGatherHierMaxBytes, "GatherHierMaxBytes")
	if alg, done := hierOr(t.Gather, GatherHier, GatherAuto, inBand, on); done {
		return alg
	}
	return GatherFlat
}

// resolveReduceScatter: the flat Auto choice is always pairwise (it
// dominates the via-root algorithm at every size on a switched network).
func (t *CollTuning) resolveReduceScatter(totalBytes int, on structure) ReduceScatterAlg {
	inBand := totalBytes >= threshold(t.ReduceScatterHierMinBytes, defaultReduceScatterHierMinBytes, "ReduceScatterHierMinBytes")
	if alg, done := hierOr(t.ReduceScatter, ReduceScatterHier, ReduceScatterAuto, inBand, on); done {
		return alg
	}
	return ReduceScatterPairwise
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
