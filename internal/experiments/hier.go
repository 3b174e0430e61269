package experiments

import (
	"fmt"
	"math"

	"repro/internal/estimator"
	"repro/internal/hnoc"
	"repro/internal/mpi"
)

// This file sweeps the hierarchy-aware collectives (internal/mpi's
// two-level algorithms) on the fat-node topology: three multi-core
// machines with fast internal buses joined by the paper's 100 Mbit
// Ethernet, 8 processes each. Rows with the same (collective, bytes,
// placement) compare the flat algorithms, the two-level algorithm, and
// the replay-derived Auto policy; the sweep keeps the rows where the
// hierarchy loses (large broadcasts, large gathers) on purpose — the
// two-level algorithms are a regime, not a universal win, and the Auto
// policy's job is to know the difference.

// interleave returns the round-robin counterpart of a placement: the same
// per-machine process counts, but ranks striped across machines instead
// of blocked, so flat algorithms' rank-order communication patterns no
// longer align with the machine structure.
func interleave(place []int) []int {
	counts := map[int]int{}
	var order []int
	for _, m := range place {
		if counts[m] == 0 {
			order = append(order, m)
		}
		counts[m]++
	}
	out := make([]int, 0, len(place))
	for len(out) < len(place) {
		for _, m := range order {
			if counts[m] > 0 {
				counts[m]--
				out = append(out, m)
			}
		}
	}
	return out
}

// hierCases enumerates the algorithm comparisons of one collective set.
// Every forced algorithm rides a copy of the replay-derived Auto tuning
// with only its selector overridden, so nested phases (the node-tier
// broadcast inside the hierarchical Allreduce, the net tier's own
// resolution) follow one policy across all rows.
func hierCases(derived *mpi.CollTuning) []collCase {
	with := func(set func(t *mpi.CollTuning)) *mpi.CollTuning {
		t := *derived
		set(&t)
		return &t
	}
	var cases []collCase
	for _, n := range []int{64 << 10, 1 << 20, 4 << 20} {
		cases = append(cases,
			collCase{"allreduce", "recdbl", n, with(func(t *mpi.CollTuning) { t.Allreduce = mpi.AllreduceRecursiveDoubling })},
			collCase{"allreduce", "ring", n, with(func(t *mpi.CollTuning) { t.Allreduce = mpi.AllreduceRing })},
			collCase{"allreduce", "hier", n, with(func(t *mpi.CollTuning) { t.Allreduce = mpi.AllreduceHier })},
			collCase{"allreduce", "auto", n, derived},
		)
	}
	for _, n := range []int{64 << 10, 1 << 20, 16 << 20} {
		cases = append(cases, hierBcastCases(derived, n)...)
	}
	for _, n := range []int{256, 4 << 10, 256 << 10} {
		cases = append(cases,
			collCase{"gather", "flat", n, with(func(t *mpi.CollTuning) { t.Gather = mpi.GatherFlat })},
			collCase{"gather", "binomial", n, with(func(t *mpi.CollTuning) { t.Gather = mpi.GatherBinomial })},
			collCase{"gather", "hier", n, with(func(t *mpi.CollTuning) { t.Gather = mpi.GatherHier })},
			collCase{"gather", "auto", n, derived},
		)
	}
	for _, n := range []int{24 * (4 << 10), 24 * (128 << 10)} {
		cases = append(cases,
			collCase{"reducescatter", "pairwise", n, with(func(t *mpi.CollTuning) { t.ReduceScatter = mpi.ReduceScatterPairwise })},
			collCase{"reducescatter", "hier", n, with(func(t *mpi.CollTuning) { t.ReduceScatter = mpi.ReduceScatterHier })},
			collCase{"reducescatter", "auto", n, derived},
		)
	}
	return cases
}

// hierBcastCases is the four-way broadcast comparison at one size.
func hierBcastCases(derived *mpi.CollTuning, n int) []collCase {
	with := func(alg mpi.BcastAlg) *mpi.CollTuning {
		t := *derived
		t.Bcast = alg
		return &t
	}
	return []collCase{
		{"bcast", "binomial", n, with(mpi.BcastBinomial)},
		{"bcast", "segmented", n, with(mpi.BcastSegmented)},
		{"bcast", "hier", n, with(mpi.BcastHier)},
		{"bcast", "auto", n, derived},
	}
}

// hierRows sweeps the fat-node topology: every comparison on the blocked
// placement, then the placement-robustness rows — the same 256 KiB
// broadcast on the interleaved placement, where the flat tree's
// rank-order edges cross the Ethernet over and over while the hierarchy
// regroups by machine.
func hierRows() (rows []collRow, derived, iderived *mpi.CollTuning, err error) {
	cluster, place := hnoc.FatNode3x8()
	iplace := interleave(place)
	if derived, err = estimator.AutoCollTuningFor(cluster, place); err != nil {
		return nil, nil, nil, err
	}
	if iderived, err = estimator.AutoCollTuningFor(cluster, iplace); err != nil {
		return nil, nil, nil, err
	}
	if rows, err = simCases(cluster, place, "blocked", hierCases(derived)); err != nil {
		return nil, nil, nil, err
	}
	irows, err := simCases(cluster, iplace, "interleaved", hierBcastCases(iderived, 256<<10))
	return append(rows, irows...), derived, iderived, err
}

// hierAllreduceSpeedup is simulated flat-ring/hierarchical Allreduce time
// at 1 MiB on the blocked placement — the acceptance bar is >= 1.2.
func hierAllreduceSpeedup(rows []collRow) float64 {
	return simOf(rows, "allreduce", "ring", 1<<20, "blocked") / simOf(rows, "allreduce", "hier", 1<<20, "blocked")
}

// hierInterleavedBcastSpeedup is simulated flat-binomial/hierarchical time
// for the 256 KiB broadcast on the interleaved placement — the
// placement-robustness win the two-level broadcast exists for (on the
// blocked placement the flat binomial tree's subtrees already align with
// the machines, so it is two-level in disguise and the hierarchy cannot
// beat it).
func hierInterleavedBcastSpeedup(rows []collRow) float64 {
	return simOf(rows, "bcast", "binomial", 256<<10, "interleaved") / simOf(rows, "bcast", "hier", 256<<10, "interleaved")
}

// band renders a derived hierarchical-broadcast band for a note.
func band(t *mpi.CollTuning) string {
	switch {
	case t.BcastHierMinBytes == math.MaxInt:
		return "never"
	case t.BcastHierMaxBytes == math.MaxInt:
		return fmt.Sprintf("[%d, inf)", t.BcastHierMinBytes)
	}
	return fmt.Sprintf("[%d, %d]", t.BcastHierMinBytes, t.BcastHierMaxBytes)
}

// TableHier renders the hierarchy sweep as a figure: simulated seconds
// per algorithm over the swept payload sizes on the fat-node topology.
func TableHier() (*Figure, error) {
	rows, derived, iderived, err := hierRows()
	if err != nil {
		return nil, err
	}
	f := collFigure("hier", "Two-level collectives: simulated time per algorithm on 3x8 fat nodes", rows)
	f.Notes = append(f.Notes,
		fmt.Sprintf("1 MiB Allreduce speedup hier vs flat ring: %.2fx (acceptance bar 1.2x);", hierAllreduceSpeedup(rows)),
		fmt.Sprintf("replayed win range for the hierarchical Allreduce: [%d, inf) bytes;", derived.AllreduceHierMinBytes),
		fmt.Sprintf("replayed hierarchical broadcast band: blocked %s, interleaved %s;", band(derived), band(iderived)),
		fmt.Sprintf("256 KiB interleaved-placement Bcast speedup hier vs binomial: %.2fx.", hierInterleavedBcastSpeedup(rows)))
	return f, nil
}
