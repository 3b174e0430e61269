package experiments

// The compute/communication-overlap figure: each case runs one workload
// on Paper9 twice — with the blocking schedule and with the overlapped
// (post-early/compute/wait) schedule — and reports both simulated times.
// The cases are deliberately mixed: an EM3D halo exchange with enough
// interior work to hide the transfers, where overlap pays well (the
// acceptance gate is >= 1.3x there), a boundary-dominated EM3D where it
// cannot (the honest row: almost every node reads remote values, so there
// is no interior compute to hide the big transfers behind), and the matmul
// pipeline. Simulated times are deterministic, so one run each suffices.

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/apps/em3d"
	"repro/internal/apps/matmul"
	"repro/internal/hnoc"
)

// overlapTimes runs the HMPI program prog(overlap) builds with both
// schedules on Paper9 and returns (blocking, overlapped) simulated times.
func overlapTimes(prog func(overlap bool) apps.Program) (float64, float64, error) {
	times := make([]float64, 2)
	for i, overlap := range []bool{false, true} {
		res, err := apps.RunOn(hnoc.Paper9(), prog(overlap), apps.HMPI)
		if err != nil {
			return 0, 0, err
		}
		times[i] = float64(res.Time)
	}
	return times[0], times[1], nil
}

// em3dOverlapTimes is overlapTimes for an EM3D workload.
func em3dOverlapTimes(cfg em3d.Config, iters int) (float64, float64, error) {
	pr, err := em3d.Generate(cfg)
	if err != nil {
		return 0, 0, err
	}
	return overlapTimes(func(overlap bool) apps.Program {
		return &em3d.Program{Problem: pr, Opts: em3d.RunOptions{Iters: iters, Overlap: overlap}}
	})
}

// matmulOverlapTimes is overlapTimes for a matmul workload: (blocking,
// pipelined).
func matmulOverlapTimes(cfg matmul.Config, lCandidates []int) (float64, float64, error) {
	pr, err := matmul.Generate(cfg)
	if err != nil {
		return 0, 0, err
	}
	return overlapTimes(func(overlap bool) apps.Program {
		return &matmul.Program{Problem: pr, Ls: lCandidates, Opts: matmul.RunOptions{Overlap: overlap}}
	})
}

// TableOverlap renders the overlap comparison as a figure: simulated
// seconds of the blocking and the overlapped schedule per workload, the
// speedups in the notes.
func TableOverlap() (*Figure, error) {
	f := &Figure{
		ID:     "overlap",
		Title:  "Compute/communication overlap: blocking vs overlapped schedules on Paper9",
		XLabel: "case",
		YLabel: "time [s]",
	}
	var blocking, overlapped []float64
	add := func(name string, b, o float64) {
		f.X = append(f.X, float64(len(f.X)+1))
		blocking = append(blocking, b)
		overlapped = append(overlapped, o)
		f.Notes = append(f.Notes, fmt.Sprintf("case %d = %s: %.2fx", len(f.X), name, b/o))
	}

	// The halo exchange in its element: a 10% boundary leaves the blocking
	// schedule a long wait for its neighbours' values in every phase, and
	// the 90% interior is plenty of compute to hide that wait behind.
	b, o, err := em3dOverlapTimes(em3d.Config{P: 9, TotalNodes: 150_000, BoundaryFrac: 0.1, Light: true}, 5)
	if err != nil {
		return nil, err
	}
	add("em3d halo p=9 nodes=150000 boundary=0.1 iters=5", b, o)

	// Boundary-dominated honest row: with half of every subbody on the
	// boundary, the transfers dwarf the interior compute; overlap cannot
	// help (and must not hurt).
	b, o, err = em3dOverlapTimes(em3d.Config{P: 9, TotalNodes: 30_000, BoundaryFrac: 0.5, Light: true}, 5)
	if err != nil {
		return nil, err
	}
	add("em3d boundary-dominated p=9 nodes=30000 boundary=0.5 iters=5", b, o)

	// Matmul pipeline: step k+1's pivot transfers ride behind step k's
	// update.
	b, o, err = matmulOverlapTimes(matmul.Config{M: 3, R: 9, N: 45}, []int{9})
	if err != nil {
		return nil, err
	}
	add("matmul m=3 r=9 n=45 l=9", b, o)

	f.Series = []Series{{Name: "blocking", Y: blocking}, {Name: "overlapped", Y: overlapped}}
	return f, nil
}
