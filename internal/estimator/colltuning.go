package estimator

// Collective policy from the schedules themselves. The hierarchy-aware
// algorithms of internal/mpi's collective engine are a regime, not a
// universal win: where they beat the flat algorithms depends on the
// network and on the placement. AutoCollTuningFor finds out by asking
// mpi.Replay — the sequential replay of the very step lists the
// collectives execute — what each side costs at a probed size, with the
// cost model's link view (Cluster.ModelLink, which sees degradations), and
// searches the payload axis for the crossovers. The thresholds therefore
// come from the code that runs, not from a parallel description of it.

import (
	"fmt"
	"math"

	"repro/internal/hnoc"
	"repro/internal/mpi"
)

// probeCeil is the largest payload the threshold searches probe. A win
// that still holds here is taken to hold for good.
const probeCeil = 1 << 26

// winBandBytes finds the payload band [lo, hi] in which win holds, when
// that is one contiguous band: it probes a grid of four sizes per octave up
// to probeCeil and refines the band's two edges to byte precision by binary
// search between neighbouring grid points. hi is math.MaxInt when the band
// is still open at probeCeil. Replayed times are sums and maxima over
// serialised interfaces, segment pipelines and header messages — nothing
// guarantees that two of them cross only once — so the search does not
// assume a single band: a second win region anywhere on the grid (a
// CollTuning threshold pair cannot express one) makes it report no band at
// all, (math.MaxInt, math.MaxInt), as it does when win never holds, and the
// policy stays flat. Only a region narrower than the quarter-octave grid
// between two probes can go unseen, and a band that narrow is not worth
// dispatching on.
func winBandBytes(win func(int) bool) (lo, hi int) {
	// edge refines a transition between grid neighbours a < b with
	// win(a) != win(b) and returns the winning side's last byte.
	edge := func(a, b int, winsAtA bool) int {
		for a+1 < b {
			if mid := a + (b-a)/2; win(mid) == winsAtA {
				a = mid
			} else {
				b = mid
			}
		}
		if winsAtA {
			return a
		}
		return b
	}
	lo, hi = math.MaxInt, math.MaxInt
	prev, prevWon, bands := 0, false, 0
	for octave := 1; octave <= probeCeil; octave *= 2 {
		for q := 0; q < 4 && octave+q*octave/4 <= probeCeil; q++ {
			x := octave + q*octave/4
			if x == prev {
				continue // the first octaves have fewer than four sizes
			}
			won := win(x)
			switch {
			case won && !prevWon:
				if bands++; bands > 1 {
					return math.MaxInt, math.MaxInt
				}
				lo = edge(prev, x, false)
			case !won && prevWon:
				hi = edge(prev, x, true)
			}
			prev, prevWon = x, won
		}
	}
	if prevWon {
		hi = math.MaxInt
	}
	return lo, hi
}

// minStableWinBytes is the smallest payload from which win holds all the
// way up. A win region that closes again before probeCeil — the hierarchy
// can win only below a crossover when the buses' per-byte cost is high —
// yields math.MaxInt: a MinBytes-style threshold cannot express "only
// below", so the policy stays flat rather than pessimising large
// payloads.
func minStableWinBytes(win func(int) bool) int {
	if lo, hi := winBandBytes(win); hi == math.MaxInt {
		return lo
	}
	return math.MaxInt
}

// maxWinningBytes is the largest payload at which win holds when wins are
// downward-closed (true of the hierarchical gather: it wins on per-message
// overhead, which large payloads dilute); 0 when win does not hold from
// the first byte.
func maxWinningBytes(win func(int) bool) int {
	if lo, hi := winBandBytes(win); lo == 1 {
		return hi
	}
	return 0
}

// cheaper returns the predicate "call a costs less than call b at this
// payload" on the cluster's model links, both calls replayed at the same
// size: whole reduction elements (the ring cuts on them), and bytes per
// part for reducescatter, whose thresholds count the total. A replay
// error (a builder bug) is parked in *err.
func cheaper(cluster *hnoc.Cluster, placement []int, a, b mpi.CollCall, err *error) func(int) bool {
	price := func(call mpi.CollCall, bytes int) float64 {
		call.Bytes = bytes
		d, e := mpi.Replay(cluster.ModelLink, placement, call)
		if e != nil {
			*err = e
		}
		return float64(d)
	}
	return func(bytes int) bool {
		if a.Coll == "reducescatter" {
			bytes /= len(placement)
		}
		if a.Coll == "allreduce" || a.Coll == "reducescatter" {
			bytes = (bytes + 7) &^ 7
		}
		return price(a, bytes) < price(b, bytes)
	}
}

// CrossoverBytes returns the smallest payload from which the collective
// is cheaper under policy a than under policy b for good, by replay on
// the given cluster and placement; math.MaxInt when a never overtakes b.
func CrossoverBytes(cluster *hnoc.Cluster, placement []int, coll string, a, b *mpi.CollTuning) (int, error) {
	var err error
	x := minStableWinBytes(cheaper(cluster, placement, mpi.CollCall{Coll: coll, Tuning: a}, mpi.CollCall{Coll: coll, Tuning: b}, &err))
	return x, err
}

// AutoCollTuningFor derives a size- and hierarchy-aware CollTuning for
// the given cluster and placement: the standard Auto policy with its
// Hier*Bytes thresholds set where the replayed two-level algorithm beats
// the replayed flat Auto resolution, so mpi's Auto dispatch follows the
// crossovers of the schedules it dispatches to. On a placement without a
// two-level structure the thresholds stay at their defaults (the
// hierarchy is never viable there, so they are inert).
func AutoCollTuningFor(cluster *hnoc.Cluster, placement []int) (*mpi.CollTuning, error) {
	t := mpi.AutoCollTuning()
	perMachine := make(map[int]int)
	maxNode := 0
	for _, m := range placement {
		if m < 0 || m >= cluster.Size() {
			return nil, fmt.Errorf("estimator: machine %d out of range", m)
		}
		perMachine[m]++
		maxNode = max(maxNode, perMachine[m])
	}
	if len(placement) < 3 || len(perMachine) < 2 || maxNode < 2 {
		return t, nil
	}
	var err error
	auto := *t
	// hierWins: forcing the collective's two-level algorithm beats the
	// flat Auto resolution on this placement.
	hierWins := func(coll string, hier mpi.CollTuning) func(int) bool {
		return cheaper(cluster, placement, mpi.CollCall{Coll: coll, Tuning: &hier}, mpi.CollCall{Coll: coll, Tuning: &auto, Flat: true}, &err)
	}
	hier := auto
	hier.Allreduce = mpi.AllreduceHier
	t.AllreduceHierMinBytes = minStableWinBytes(hierWins("allreduce", hier))
	// The broadcast's win region can be a band: the hierarchy wins on tree
	// depth until the payload is so large that its extra root-to-leader
	// full-vector hop outweighs the depth saved.
	hier = auto
	hier.Bcast = mpi.BcastHier
	t.BcastHierMinBytes, t.BcastHierMaxBytes = winBandBytes(hierWins("bcast", hier))
	// 0 would mean "default"; 1 confines a never-winning hierarchy to
	// empty-ish payloads.
	hier = auto
	hier.Gather = mpi.GatherHier
	t.GatherHierMaxBytes = max(1, maxWinningBytes(hierWins("gather", hier)))
	hier = auto
	hier.ReduceScatter = mpi.ReduceScatterHier
	t.ReduceScatterHierMinBytes = minStableWinBytes(hierWins("reducescatter", hier))
	return t, err
}
