package experiments

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/hnoc"
	"repro/internal/mpi"
)

// autoIsBest fails t for every auto row that is not exactly the minimum of
// the forced rows of its (collective, size, placement) group: the dispatch
// picks one of the compared algorithms, so its time is one of theirs.
func autoIsBest(t *testing.T, rows []collRow) {
	t.Helper()
	key := func(r collRow) string { return fmt.Sprintf("%s:%d:%s", r.collective, r.bytes, r.placement) }
	best := map[string]float64{}
	for _, r := range rows {
		if b, ok := best[key(r)]; r.algorithm != "auto" && (!ok || r.sim < b) {
			best[key(r)] = r.sim
		}
	}
	for _, r := range rows {
		if r.algorithm == "auto" && r.sim != best[key(r)] {
			t.Errorf("%s: auto %.9g, the best forced algorithm %.9g", key(r), r.sim, best[key(r)])
		}
	}
}

// TestCollGate enforces the flat-engine sweep's acceptance gates: the ring
// Allreduce must beat the legacy reduce+bcast by at least 2x at 1 MiB on
// Paper9, and Auto must equal the best forced algorithm of every group —
// the sweep's Allreduce rows, and Auto run here at each Bcast and Gather
// size (the figure holds no auto row for them).
func TestCollGate(t *testing.T) {
	rows, err := collRows()
	if err != nil {
		t.Fatal(err)
	}
	if s := collLargeSpeedup(rows); !(s >= 2) {
		t.Errorf("1 MiB Allreduce ring speedup %.3fx below the 2x gate", s)
	}
	var cases []collCase
	for _, r := range rows {
		if (r.collective == "bcast" || r.collective == "gather") && r.algorithm == "binomial" {
			cases = append(cases, collCase{r.collective, "auto", r.bytes, mpi.AutoCollTuning()})
		}
	}
	cluster := hnoc.Paper9()
	auto, err := simCases(cluster, mpi.OneProcessPerMachine(cluster), "blocked", cases)
	if err != nil {
		t.Fatal(err)
	}
	if len(auto) != 4 {
		t.Fatalf("%d bcast and gather sizes in the sweep, want 4", len(auto))
	}
	autoIsBest(t, append(rows, auto...))
}

// TestHierGate enforces the fat-node sweep's acceptance gates: the
// hierarchical Allreduce must beat the flat ring by at least 1.2x at
// 1 MiB, the hierarchical broadcast must win big on the interleaved
// placement, every Auto row must equal the best forced algorithm of its
// group, and the losing rows the sweep keeps for honesty must actually be
// losing. (The thresholds the replay derives on this topology are pinned
// by estimator.TestAutoCollTuningThresholds.)
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
	autoIsBest(t, rows)
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
