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

// winBandBytes finds the single contiguous win band [lo, hi] on a
// power-of-two probe grid up to probeCeil, refined to byte precision by
// binary search. Returns (math.MaxInt, math.MaxInt) when win never holds
// at a probed size; hi is math.MaxInt when the band is still open
// there. The models compared here are differences of two piecewise-linear
// functions with at most one interior kink each, so their win region is a
// single band and the grid cannot skip over it unless the band spans
// less than one octave — narrower than any band worth dispatching on.
func winBandBytes(win func(int) bool) (lo, hi int) {
	firstWin := 0
	for x := 1; x <= probeCeil; x *= 2 {
		if win(x) {
			firstWin = x
			break
		}
	}
	if firstWin == 0 {
		return math.MaxInt, math.MaxInt
	}
	lo = 1
	if firstWin > 1 {
		l, h := firstWin/2, firstWin // !win(l), win(h)
		for l+1 < h {
			mid := l + (h-l)/2
			if win(mid) {
				h = mid
			} else {
				l = mid
			}
		}
		lo = h
	}
	lastWin := firstWin
	for x := firstWin * 2; x <= probeCeil; x *= 2 {
		if !win(x) {
			l, h := lastWin, x // win(l), !win(h)
			for l+1 < h {
				mid := l + (h-l)/2
				if win(mid) {
					l = mid
				} else {
					h = mid
				}
			}
			return lo, l
		}
		lastWin = x
	}
	return lo, math.MaxInt
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
	// The broadcast's win region is a band: the hierarchy wins on tree
	// depth until the payload is so large that its extra root-to-leader
	// full-vector hop outweighs the depth saved (a pipelined segmented
	// broadcast already runs at link bandwidth).
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
