package experiments

import (
	"repro/internal/apps/jacobi"
	"repro/internal/hnoc"
)

// TableJacobi (ours) runs the third application — Jacobi relaxation with
// speed-proportional strips vs uniform strips — over growing grids on the
// paper network. The stencil exchanges only one boundary row per
// neighbour per sweep, so it is compute-bound and the gain approaches the
// capacity ratio (total speed / (p * slowest) = 567/81 = 7), the upper
// envelope of what group selection plus data distribution can buy.
func TableJacobi() (*Figure, error) {
	f := &Figure{
		ID:     "jacobi",
		Title:  "Jacobi relaxation: speed-proportional vs uniform strips (Table D)",
		XLabel: "grid size [rows=cols]",
		YLabel: "time [s]",
	}
	var hs, ms, sp []float64
	for _, g := range []int{900, 1800, 2700, 3600} {
		pr, err := jacobi.Generate(jacobi.Config{Rows: g, Cols: g, Iters: 10, P: 9})
		if err != nil {
			return nil, err
		}
		h, m, err := versus(hnoc.Paper9(), &jacobi.Program{Problem: pr})
		if err != nil {
			return nil, err
		}
		f.X = append(f.X, float64(g))
		hs = append(hs, h)
		ms = append(ms, m)
		sp = append(sp, m/h)
	}
	f.Series = []Series{{Name: "HMPI", Y: hs}, {Name: "uniform", Y: ms}, {Name: "speedup", Y: sp}}
	f.Notes = append(f.Notes,
		"10 sweeps, 9 strips on the paper network. A third application beyond",
		"the paper's two: only the model and the kernel are new code.")
	return f, nil
}
