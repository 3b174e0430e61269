package em3d

// Model-fidelity tests: the paper's whole mechanism rests on the
// performance model describing what the implementation actually does.
// These tests execute the real parallel algorithm and compare the
// measured per-process computation and communication volumes against the
// model's node and link declarations.

import (
	"math"
	"testing"

	"repro/internal/hmpi"
	"repro/internal/hnoc"
)

func TestModelMatchesExecutionVolumes(t *testing.T) {
	pr, err := Generate(Config{P: 6, TotalNodes: 60_000, K: 100})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := Model().Instantiate(pr.ModelArgs()...)
	if err != nil {
		t.Fatal(err)
	}

	const iters = 7
	cluster := hnoc.Homogeneous(6, 50)
	rt, err := hmpi.New(hmpi.Config{Cluster: cluster})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Finalize()
	// Run the algorithm directly on the world communicator (process i is
	// subbody i) so the stats contain nothing but the algorithm's own
	// traffic.
	err = rt.Run(func(h *hmpi.Process) error {
		return RunParallel(h.CommWorld(), pr, RunOptions{Iters: iters})
	})
	if err != nil {
		t.Fatal(err)
	}
	stats := rt.World().Stats()

	// Computation: the model says d[i]/k kernels per iteration (integer
	// division); the implementation charges d[i]/k exactly (up to the
	// rounding the model's integer division introduces, bounded by one
	// kernel per iteration).
	for i := range pr.Bodies {
		gotKernels := stats[i].ComputeUnits / pr.KernelUnits(pr.K)
		wantKernels := inst.CompVolume[i] * iters
		if gotKernels < wantKernels-1e-6 || gotKernels > wantKernels+iters {
			t.Errorf("body %d executed %.2f kernels, model says %.2f (+%d rounding)",
				i, gotKernels, wantKernels, iters)
		}
	}

	// Communication: the model says CommVolume[src][dst] bytes per
	// iteration; sum over destinations gives each process's outgoing
	// bytes.
	for src := range pr.Bodies {
		var wantOut float64
		for dst := range pr.Bodies {
			wantOut += inst.CommVolume[src][dst]
		}
		wantOut *= iters
		got := float64(stats[src].BytesSent)
		if math.Abs(got-wantOut) > 1e-9 {
			t.Errorf("body %d sent %v bytes, model says %v", src, got, wantOut)
		}
	}
}

func TestModelCommMatrixMatchesPerPair(t *testing.T) {
	pr, err := Generate(Config{P: 4, TotalNodes: 8_000, K: 50})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := Model().Instantiate(pr.ModelArgs()...)
	if err != nil {
		t.Fatal(err)
	}
	dep := pr.Dep()
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if i == j {
				continue
			}
			// Link clause: from L=j to I=i carries dep[i][j]*8 bytes.
			if inst.CommVolume[j][i] != float64(dep[i][j]*8) {
				t.Errorf("model volume %d->%d is %v, dep says %v",
					j, i, inst.CommVolume[j][i], float64(dep[i][j]*8))
			}
			// The implementation's exchange lists agree with dep.
			if len(pr.DepH[i][j])+len(pr.DepE[i][j]) != dep[i][j] {
				t.Errorf("boundary lists inconsistent at (%d,%d)", i, j)
			}
		}
	}
}
