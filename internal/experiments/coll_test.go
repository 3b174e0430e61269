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
}

// TestHierGate enforces the fat-node sweep's acceptance gates: the
// hierarchical Allreduce must beat the flat ring by at least 1.2x at
// 1 MiB, the hierarchical broadcast must win big on the interleaved
// placement, the Auto rows must track the best forced algorithm, and the
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
	// Auto must track the best forced row of its (collective, size,
	// placement) group. Exact for allreduce, gather and reducescatter —
	// the dispatch picks one of the compared algorithms, so its time is
	// one of theirs. Blocked-placement broadcasts get 2.5% slack: the
	// rank-blocked binomial tree's subtrees align with the machines, so
	// it is two-level in disguise and every algorithm lands within a
	// couple percent, and Auto pays one header message per tree edge that
	// the forced binomial row does not.
	best := map[string]float64{}
	auto := map[string]float64{}
	tol := map[string]float64{}
	for _, r := range rows {
		k := fmt.Sprintf("%s:%d:%s", r.collective, r.bytes, r.placement)
		if r.collective == "bcast" && r.placement == "blocked" {
			tol[k] = 0.025
		}
		if r.algorithm == "auto" {
			auto[k] = r.sim
			continue
		}
		if b, ok := best[k]; !ok || r.sim < b {
			best[k] = r.sim
		}
	}
	for k, a := range auto {
		slack := tol[k] + 1e-12
		if a > best[k]*(1+slack) {
			t.Errorf("%s: auto %.9g slower than the best forced algorithm %.9g (slack %.1f%%)",
				k, a, best[k], slack*100)
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
