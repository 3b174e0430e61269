package experiments

import (
	"fmt"
	"strings"

	"repro/internal/estimator"
	"repro/internal/hnoc"
	"repro/internal/mpi"
)

// This file sweeps the collective algorithm engine (internal/mpi's
// CollTuning) on the paper's 9-workstation network: the simulated
// completion time of each algorithm at each payload size. What the host
// spends simulating them is bench/'s mpi.coll_us.* and mpi.coll_allocs.*
// rows.

// collRow is one simulated collective: an algorithm at one payload size.
// Rows with the same (collective, bytes, placement) compare algorithms.
type collRow struct {
	collective, algorithm string
	bytes                 int
	// placement is "blocked" (each machine's ranks contiguous) or
	// "interleaved" (ranks round-robin across machines); only the
	// fat-node sweep of hier.go has more than one.
	placement string
	sim       float64
}

// simOf returns the simulated seconds of the row with the given key, or 0
// when the sweep has no such row.
func simOf(rows []collRow, collective, algorithm string, bytes int, placement string) float64 {
	for _, r := range rows {
		if r.collective == collective && r.algorithm == algorithm && r.bytes == bytes && r.placement == placement {
			return r.sim
		}
	}
	return 0
}

// collFigure renders a sweep as a figure: one case per row, simulated
// seconds as the only series, and the case labels as notes, four a line.
func collFigure(id, title string, rows []collRow) *Figure {
	f := &Figure{ID: id, Title: title, XLabel: "case", YLabel: "s"}
	var sim []float64
	var labels []string
	for i, r := range rows {
		f.X = append(f.X, float64(i+1))
		sim = append(sim, r.sim)
		label := fmt.Sprintf("%d=%s/%s/%dB", i+1, r.collective, r.algorithm, r.bytes)
		if r.placement != "blocked" {
			label += "/" + r.placement
		}
		labels = append(labels, label)
	}
	f.Series = []Series{{Name: "simulated", Y: sim}}
	for i := 0; i < len(labels); i += 4 {
		f.Notes = append(f.Notes, "cases "+strings.Join(labels[i:min(i+4, len(labels))], ", "))
	}
	return f
}

// collBody returns the rank program that runs the named collective once
// over nbytes of payload (per rank; the total across ranks for
// reducescatter).
func collBody(collective string, nbytes int) func(p *mpi.Proc) error {
	return func(p *mpi.Proc) error {
		comm := p.CommWorld()
		switch collective {
		case "allreduce":
			comm.Allreduce(make([]byte, nbytes), mpi.SumFloat64)
		case "bcast":
			var data []byte
			if p.Rank() == 0 {
				data = make([]byte, nbytes)
			}
			comm.Bcast(0, data)
		case "gather":
			comm.Gather(0, make([]byte, nbytes))
		case "reducescatter":
			parts := make([][]byte, comm.Size())
			for i := range parts {
				parts[i] = make([]byte, nbytes/comm.Size())
			}
			comm.ReduceScatter(parts, mpi.SumFloat64)
		default:
			return fmt.Errorf("experiments: no rank program for collective %q", collective)
		}
		return nil
	}
}

// collCase is one row to simulate: a collective forced onto (or left to
// choose) an algorithm by its tuning.
type collCase struct {
	collective, algorithm string
	bytes                 int
	tuning                *mpi.CollTuning
}

// simCases runs every case in a fresh world on the given network and
// placement and returns the simulated makespans.
func simCases(cluster *hnoc.Cluster, place []int, placement string, cases []collCase) ([]collRow, error) {
	rows := make([]collRow, 0, len(cases))
	for _, k := range cases {
		w := mpi.NewWorld(cluster, place)
		w.SetCollTuning(k.tuning)
		if err := w.Run(collBody(k.collective, k.bytes)); err != nil {
			return nil, fmt.Errorf("%s/%s at %d bytes (%s): %w", k.collective, k.algorithm, k.bytes, placement, err)
		}
		rows = append(rows, collRow{k.collective, k.algorithm, k.bytes, placement, float64(w.Makespan())})
	}
	return rows, nil
}

// collRows sweeps the flat algorithms on Paper9, one process per machine.
func collRows() ([]collRow, error) {
	var cases []collCase
	for _, n := range []int{1 << 10, 64 << 10, 1 << 20} {
		cases = append(cases,
			collCase{"allreduce", "redbcast", n, &mpi.CollTuning{Allreduce: mpi.AllreduceRedBcast}},
			collCase{"allreduce", "recdbl", n, &mpi.CollTuning{Allreduce: mpi.AllreduceRecursiveDoubling}},
			collCase{"allreduce", "ring", n, &mpi.CollTuning{Allreduce: mpi.AllreduceRing}},
			collCase{"allreduce", "auto", n, mpi.AutoCollTuning()},
		)
	}
	for _, n := range []int{64 << 10, 1 << 20} {
		cases = append(cases,
			collCase{"bcast", "binomial", n, &mpi.CollTuning{Bcast: mpi.BcastBinomial}},
			collCase{"bcast", "segmented", n, &mpi.CollTuning{Bcast: mpi.BcastSegmented}},
		)
	}
	for _, n := range []int{256, 64 << 10} {
		cases = append(cases,
			collCase{"gather", "flat", n, &mpi.CollTuning{Gather: mpi.GatherFlat}},
			collCase{"gather", "binomial", n, &mpi.CollTuning{Gather: mpi.GatherBinomial}},
		)
	}
	for _, n := range []int{9 * (4 << 10), 9 * (128 << 10)} {
		cases = append(cases,
			collCase{"reducescatter", "viaroot", n, &mpi.CollTuning{ReduceScatter: mpi.ReduceScatterViaRoot}},
			collCase{"reducescatter", "pairwise", n, &mpi.CollTuning{ReduceScatter: mpi.ReduceScatterPairwise}},
		)
	}
	cluster := hnoc.Paper9()
	return simCases(cluster, mpi.OneProcessPerMachine(cluster), "blocked", cases)
}

// collLargeSpeedup is the simulated legacy/ring Allreduce time at the
// sweep's largest payload (the acceptance bar for the engine is >= 2).
func collLargeSpeedup(rows []collRow) float64 {
	return simOf(rows, "allreduce", "redbcast", 1<<20, "blocked") / simOf(rows, "allreduce", "ring", 1<<20, "blocked")
}

// TableColl renders the collective-engine comparison as a figure:
// simulated seconds per algorithm over the swept payload sizes.
func TableColl() (*Figure, error) {
	rows, err := collRows()
	if err != nil {
		return nil, err
	}
	cluster := hnoc.Paper9()
	crossover, err := estimator.CrossoverBytes(cluster, mpi.OneProcessPerMachine(cluster), "allreduce",
		&mpi.CollTuning{Allreduce: mpi.AllreduceRing}, &mpi.CollTuning{Allreduce: mpi.AllreduceRedBcast})
	if err != nil {
		return nil, err
	}
	f := collFigure("coll", "Collective engine: simulated time per algorithm on Paper9", rows)
	f.Notes = append(f.Notes,
		fmt.Sprintf("large-message Allreduce speedup ring vs legacy: %.2fx (acceptance bar 2x);", collLargeSpeedup(rows)),
		fmt.Sprintf("replayed ring-vs-legacy crossover: %d bytes.", crossover))
	return f, nil
}
