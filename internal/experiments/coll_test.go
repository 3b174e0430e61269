package experiments

import (
	"fmt"
	"math"
	"testing"
)

// TestCollGate enforces the flat-engine sweep's acceptance gate: the ring
// Allreduce must beat the legacy reduce+bcast by at least 2x at 1 MiB on
// Paper9.
func TestCollGate(t *testing.T) {
	rows, err := collRows()
	if err != nil {
		t.Fatal(err)
	}
	if s := collLargeSpeedup(rows); !(s >= 2) {
		t.Errorf("1 MiB Allreduce ring speedup %.3fx below the 2x gate", s)
	}
	// The flat Bcast rule's open decision (TestHierGate) on Paper9: Auto
	// picks the segmented pipeline at >= 64 KiB, and the binomial tree is
	// lower (rows 13-16: 0.02442 vs 0.02474, 0.3819 vs 0.387).
	for _, n := range []int{64 << 10, 1 << 20} {
		b, seg := simOf(rows, "bcast", "binomial", n, "blocked"), simOf(rows, "bcast", "segmented", n, "blocked")
		if gap := seg/b - 1; !(gap > 0 && gap < 0.02) {
			t.Errorf("bcast at %d bytes: binomial %.9g vs segmented %.9g (gap %.2f%%), want binomial lower by under 2%%",
				n, b, seg, gap*100)
		}
	}
}

// TestHierGate enforces the fat-node sweep's acceptance gates: the
// hierarchical Allreduce must beat the flat ring by at least 1.2x at
// 1 MiB, the hierarchical broadcast must win big on the interleaved
// placement, the Auto rows must equal the best forced algorithm, and the
// losing rows the sweep keeps for honesty must actually be losing. (The
// thresholds the replay derives on this topology are pinned by
// estimator.TestAutoCollTuningThresholds.)
func TestHierGate(t *testing.T) {
	rows, _, _, err := hierRows()
	if err != nil {
		t.Fatal(err)
	}
	if s := hierAllreduceSpeedup(rows); !(s >= 1.2) {
		t.Errorf("1 MiB Allreduce hier speedup %.3fx below the 1.2x gate", s)
	}
	if s := hierInterleavedBcastSpeedup(rows); !(s >= 1.2) {
		t.Errorf("256 KiB interleaved Bcast hier speedup %.3fx below the 1.2x gate", s)
	}
	// Auto must equal the best forced row of its (collective, size,
	// placement) group exactly: the dispatch picks one of the compared
	// algorithms, so its time is one of theirs. One recorded exception,
	// the open decision on the flat Bcast rule: on the blocked placement
	// the replayed band rules the hierarchy out and the flat size rule
	// picks the segmented pipeline at >= 64 KiB, so Auto equals
	// min(segmented, hier) while the forced binomial tree — its subtrees
	// align with the machines, two-level in disguise — is lower by
	// 0.7-0.9% (rows 13-24: 0.01248 vs 0.01259, 0.1961 vs 0.1976, 3.135
	// vs 3.158). Changing that rule moves the msg-* benchmark's simulated
	// time and coll_clocks.golden, so it is a change of its own.
	best := map[string]float64{}
	auto := map[string]float64{}
	binomial := map[string]float64{}
	for _, r := range rows {
		k := fmt.Sprintf("%s:%d:%s", r.collective, r.bytes, r.placement)
		switch {
		case r.algorithm == "auto":
			auto[k] = r.sim
		case r.collective == "bcast" && r.placement == "blocked" && r.algorithm == "binomial":
			binomial[k] = r.sim
		default:
			if b, ok := best[k]; !ok || r.sim < b {
				best[k] = r.sim
			}
		}
	}
	for k, a := range auto {
		if a != best[k] {
			t.Errorf("%s: auto %.9g, the best forced algorithm %.9g", k, a, best[k])
		}
	}
	if len(binomial) != 3 {
		t.Fatalf("blocked bcast binomial rows = %d, want 3", len(binomial))
	}
	for k, b := range binomial {
		if gap := auto[k]/b - 1; !(gap > 0 && gap < 0.01) {
			t.Errorf("%s: forced binomial %.9g vs auto %.9g (gap %.2f%%), want binomial lower by under 1%%",
				k, b, auto[k], gap*100)
		}
	}
	// Honest losing rows: at the largest blocked-placement broadcast and
	// gather payloads the hierarchy must lose to the best flat algorithm
	// (its win region is a band), proving the sweep is not cherry-picked.
	hierLoses := func(collective string, bytes int) {
		hier, bestFlat := 0.0, math.Inf(1)
		for _, r := range rows {
			if r.collective != collective || r.bytes != bytes || r.placement != "blocked" {
				continue
			}
			switch r.algorithm {
			case "hier":
				hier = r.sim
			case "auto":
			default:
				if r.sim < bestFlat {
					bestFlat = r.sim
				}
			}
		}
		if hier == 0 || math.IsInf(bestFlat, 1) {
			t.Fatalf("%s at %d bytes missing from the sweep", collective, bytes)
		}
		if hier <= bestFlat {
			t.Errorf("%s at %d bytes: hier %.9g does not lose to flat %.9g — expected an honest losing row",
				collective, bytes, hier, bestFlat)
		}
	}
	hierLoses("bcast", 16<<20)
	hierLoses("gather", 256<<10)
}
