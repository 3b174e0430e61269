package matmul

// Model-fidelity tests: compare the executed computation and communication
// volumes of the real algorithm against the ParallelAxB model's node and
// link declarations. When l divides n the model's integer arithmetic is
// exact and the two must agree precisely.

import (
	"math"
	"testing"

	"repro/internal/hmpi"
	"repro/internal/hnoc"
)

// runWithDist executes the algorithm with a fixed distribution on a
// homogeneous cluster and returns the per-process stats.
func runWithDist(t *testing.T, pr *Problem, dist *Dist) []float64 {
	t.Helper()
	cluster := hnoc.Homogeneous(pr.M*pr.M, 50)
	rt, err := hmpi.New(hmpi.Config{Cluster: cluster})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Finalize()
	err = rt.Run(func(h *hmpi.Process) error {
		_, err := RunParallel(h.CommWorld(), pr, dist, RunOptions{})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, pr.M*pr.M)
	for r, st := range rt.World().Stats() {
		out[r] = st.ComputeUnits
	}
	return out
}

func TestComputeVolumesMatchModel(t *testing.T) {
	const (
		m = 3
		r = 4
		n = 18
		l = 6
	)
	pr, err := Generate(Config{M: m, R: r, N: n})
	if err != nil {
		t.Fatal(err)
	}
	grid := [][]float64{{40, 60, 80}, {120, 30, 50}, {70, 90, 20}}
	dist, err := NewHetero(grid, l, n, r)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := Model().Instantiate(dist.ModelArgs()...)
	if err != nil {
		t.Fatal(err)
	}
	units := runWithDist(t, pr, dist)
	for rank := 0; rank < m*m; rank++ {
		gotKernels := units[rank] / pr.KernelUnits(1)
		// Model: w[J]*h*(n/l)^2*n kernels over the whole run (l | n, so
		// exact).
		want := inst.CompVolume[rank]
		if math.Abs(gotKernels-want) > 1e-6 {
			i, j := dist.GridOf(rank)
			t.Errorf("P(%d,%d) executed %.1f kernels, model says %.1f", i, j, gotKernels, want)
		}
	}
}

func TestCommVolumesMatchModel(t *testing.T) {
	const (
		m = 2
		r = 3
		n = 12
		l = 4
	)
	pr, err := Generate(Config{M: m, R: r, N: n})
	if err != nil {
		t.Fatal(err)
	}
	grid := [][]float64{{30, 90}, {60, 45}}
	dist, err := NewHetero(grid, l, n, r)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := Model().Instantiate(dist.ModelArgs()...)
	if err != nil {
		t.Fatal(err)
	}

	cluster := hnoc.Homogeneous(m*m, 50)
	rt, err := hmpi.New(hmpi.Config{Cluster: cluster})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Finalize()
	err = rt.Run(func(h *hmpi.Process) error {
		_, err := RunParallel(h.CommWorld(), pr, dist, RunOptions{})
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	stats := rt.World().Stats()

	// Per-process outgoing volume must equal the model's row sums: the
	// model counts the A and B traffic exactly when l divides n.
	for src := 0; src < m*m; src++ {
		var want float64
		for dst := 0; dst < m*m; dst++ {
			want += inst.CommVolume[src][dst]
		}
		got := float64(stats[src].BytesSent)
		if math.Abs(got-want) > 1e-9 {
			i, j := dist.GridOf(src)
			t.Errorf("P(%d,%d) sent %v bytes, model says %v", i, j, got, want)
		}
	}
	// Total conservation: bytes sent == bytes received across the world.
	var sent, recv int64
	for _, st := range stats {
		sent += st.BytesSent
		recv += st.BytesRecv
	}
	if sent != recv {
		t.Errorf("sent %d != received %d", sent, recv)
	}
}

func TestHomogeneousDistributionUniformVolumes(t *testing.T) {
	// Under the baseline distribution every processor owns the same
	// number of blocks, so executed kernels must be identical.
	const (
		m = 3
		r = 2
		n = 9
	)
	pr, err := Generate(Config{M: m, R: r, N: n})
	if err != nil {
		t.Fatal(err)
	}
	dist := NewHomogeneous(m, n, r)
	units := runWithDist(t, pr, dist)
	for rank := 1; rank < m*m; rank++ {
		if math.Abs(units[rank]-units[0]) > 1e-9 {
			t.Fatalf("baseline volumes differ: %v", units)
		}
	}
}
