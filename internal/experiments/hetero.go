package experiments

import (
	"fmt"
	"math"

	"repro/internal/apps/em3d"
	"repro/internal/hnoc"
)

// TableHeterogeneity (ours) sweeps the degree of heterogeneity: nine
// machines whose speeds spread geometrically over a widening range while
// the total capacity stays fixed. On a homogeneous network HMPI's
// selection cannot win (the paper's own observation about conventional
// clusters); the benefit must grow with the spread. This quantifies the
// threshold at which model-driven group selection starts paying off.
func TableHeterogeneity() (*Figure, error) {
	f := &Figure{
		ID:     "hetero",
		Title:  "EM3D speedup vs degree of heterogeneity (Table C)",
		XLabel: "max/min speed ratio",
		YLabel: "speedup",
	}
	var speedups []float64
	for _, ratio := range []float64{1, 2, 4, 8, 20, 50} {
		c, err := spreadCluster(9, 46, ratio)
		if err != nil {
			return nil, err
		}
		pr, err := em3d.Generate(em3d.Config{P: 9, TotalNodes: 400_000, K: 1000, Light: true})
		if err != nil {
			return nil, err
		}
		h, m, err := versus(c, &em3d.Program{Problem: pr, Opts: em3d.RunOptions{Iters: em3dIters}})
		if err != nil {
			return nil, err
		}
		f.X = append(f.X, ratio)
		speedups = append(speedups, m/h)
	}
	f.Series = []Series{{Name: "speedup", Y: speedups}}
	f.Notes = append(f.Notes,
		"Nine machines, speeds spread geometrically with constant total capacity;",
		"ratio 1 is a homogeneous cluster, where HMPI cannot (and does not) win.",
		"The paper's testbed has ratio 176/9 = 19.6. The curve is non-monotone:",
		"with nine subbodies on nine machines every group must include the",
		"slowest machine, so at extreme spreads it bottlenecks HMPI and MPI",
		"alike and the achievable edge shrinks back towards the share ratio.")
	return f, nil
}

// spreadCluster builds an n-machine cluster whose speeds form a geometric
// progression with the given max/min ratio, scaled so the total speed
// equals n*mean (constant aggregate capacity across the sweep). The
// machine order interleaves fast and slow so the rank-order baseline is
// neither best- nor worst-case.
func spreadCluster(n int, mean, ratio float64) (*hnoc.Cluster, error) {
	if ratio < 1 {
		return nil, fmt.Errorf("experiments: ratio %v below 1", ratio)
	}
	speeds := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		exp := float64(i) / float64(n-1)
		speeds[i] = math.Pow(ratio, exp)
		sum += speeds[i]
	}
	scale := mean * float64(n) / sum
	// Interleave: fastest, slowest, second fastest, second slowest, ...
	order := make([]int, 0, n)
	lo, hi := 0, n-1
	for lo <= hi {
		order = append(order, hi)
		if lo != hi {
			order = append(order, lo)
		}
		hi--
		lo++
	}
	c := &hnoc.Cluster{Remote: hnoc.Ethernet100(), Local: hnoc.SharedMemory()}
	for i, idx := range order {
		c.Machines = append(c.Machines, hnoc.Machine{
			Name:  fmt.Sprintf("node%02d", i),
			Speed: speeds[idx] * scale,
		})
	}
	return c, c.Validate()
}
