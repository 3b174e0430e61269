package jacobi

import (
	"math"
	"testing"

	"repro/internal/apps"
	"repro/internal/hmpi"
	"repro/internal/hnoc"
)

func TestGenerateValidation(t *testing.T) {
	for name, cfg := range map[string]Config{
		"zero rows":  {Rows: 0, Cols: 4, Iters: 1, P: 1},
		"zero cols":  {Rows: 4, Cols: 0, Iters: 1, P: 1},
		"zero iters": {Rows: 4, Cols: 4, Iters: 0, P: 1},
		"rows < p":   {Rows: 2, Cols: 4, Iters: 1, P: 3},
	} {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestHeightsProportionalAndPositive(t *testing.T) {
	pr, err := Generate(Config{Rows: 100, Cols: 10, Iters: 1, P: 4})
	if err != nil {
		t.Fatal(err)
	}
	h, err := pr.Heights([]float64{10, 30, 50, 10}) // sums to 100
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, v := range h {
		if v <= 0 {
			t.Fatalf("non-positive height in %v", h)
		}
		sum += v
	}
	if sum != 100 {
		t.Fatalf("heights %v sum to %d", h, sum)
	}
	if h[2] != 50 || h[1] != 30 {
		t.Fatalf("heights %v not proportional", h)
	}
	// Extreme skew still leaves every strip a row.
	h2, err := pr.Heights([]float64{1e6, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range h2 {
		if v < 1 {
			t.Fatalf("starved strip in %v", h2)
		}
	}
}

func TestUniformHeights(t *testing.T) {
	pr, _ := Generate(Config{Rows: 10, Cols: 4, Iters: 1, P: 3})
	h := pr.UniformHeights()
	sum := 0
	for _, v := range h {
		sum += v
		if v < 3 || v > 4 {
			t.Fatalf("uniform heights %v", h)
		}
	}
	if sum != 10 {
		t.Fatalf("uniform heights sum %d", sum)
	}
}

func TestModelInstantiates(t *testing.T) {
	pr, _ := Generate(Config{Rows: 12, Cols: 8, Iters: 3, P: 3})
	inst, err := Model().Instantiate(pr.ModelArgs([]int{2, 4, 6})...)
	if err != nil {
		t.Fatal(err)
	}
	if inst.NumProcs != 3 {
		t.Fatalf("NumProcs %d", inst.NumProcs)
	}
	for i, want := range []float64{2, 4, 6} {
		if inst.CompVolume[i] != want {
			t.Fatalf("CompVolume[%d] = %v", i, inst.CompVolume[i])
		}
	}
	// Neighbours exchange one row of 8 doubles.
	if inst.CommVolume[0][1] != 64 || inst.CommVolume[1][0] != 64 {
		t.Fatalf("neighbour volumes %v %v", inst.CommVolume[0][1], inst.CommVolume[1][0])
	}
	if inst.CommVolume[0][2] != 0 {
		t.Fatalf("non-neighbour volume %v", inst.CommVolume[0][2])
	}
}

// TestParallelMatchesSerial: the distributed sweeps are bit-identical to
// the serial reference in both modes.
func TestParallelMatchesSerial(t *testing.T) {
	pr, err := Generate(Config{Rows: 23, Cols: 11, Iters: 5, P: 4, RealMath: true})
	if err != nil {
		t.Fatal(err)
	}
	want := pr.SerialRun()
	cluster := hnoc.Paper9()

	hprog := &Program{Problem: pr, Collect: true}
	if _, err := apps.RunOn(cluster, hprog, apps.HMPI); err != nil {
		t.Fatal(err)
	}
	mprog := &Program{Problem: pr, Collect: true}
	if _, err := apps.RunOn(cluster, mprog, apps.MPI); err != nil {
		t.Fatal(err)
	}
	for name, field := range map[string][]float64{"HMPI": hprog.Field, "MPI": mprog.Field} {
		if len(field) != len(want) {
			t.Fatalf("%s field has %d values, want %d", name, len(field), len(want))
		}
		for i := range want {
			if field[i] != want[i] {
				t.Fatalf("%s differs from serial at %d: %v vs %v", name, i, field[i], want[i])
			}
		}
	}
}

func TestHMPIBeatsUniformBaseline(t *testing.T) {
	pr, err := Generate(Config{Rows: 4500, Cols: 3000, Iters: 10, P: 9})
	if err != nil {
		t.Fatal(err)
	}
	hprog := &Program{Problem: pr}
	hres, err := apps.RunOn(hnoc.Paper9(), hprog, apps.HMPI)
	if err != nil {
		t.Fatal(err)
	}
	mres, err := apps.RunOn(hnoc.Paper9(), &Program{Problem: pr}, apps.MPI)
	if err != nil {
		t.Fatal(err)
	}
	speedup := float64(mres.Time) / float64(hres.Time)
	if speedup < 2 {
		t.Fatalf("Jacobi speedup only %.2fx (HMPI %v, MPI %v, heights %v)",
			speedup, hres.Time, mres.Time, hprog.Heights)
	}
	t.Logf("Jacobi speedup %.2fx (HMPI %.4gs heights %v, MPI %.4gs)",
		speedup, float64(hres.Time), hprog.Heights, float64(mres.Time))
	// The strips follow the speeds: the largest strip must not be on the
	// slowest machine.
	maxStrip, maxIdx := 0, 0
	for i, h := range hprog.Heights {
		if h > maxStrip {
			maxStrip, maxIdx = h, i
		}
	}
	slowRank := 8 // machine with speed 9
	if hres.Selection[maxIdx] == slowRank {
		t.Fatalf("largest strip on the slowest machine: heights %v selection %v",
			hprog.Heights, hres.Selection)
	}
}

func TestPredictedTracksSimulated(t *testing.T) {
	pr, err := Generate(Config{Rows: 1800, Cols: 1200, Iters: 10, P: 9})
	if err != nil {
		t.Fatal(err)
	}
	res, err := apps.RunOn(hnoc.Paper9(), &Program{Problem: pr}, apps.HMPI)
	if err != nil {
		t.Fatal(err)
	}
	ratio := res.Predicted / float64(res.Time)
	if math.IsNaN(ratio) || ratio < 0.5 || ratio > 2.5 {
		t.Fatalf("prediction %v vs simulated %v (ratio %.2f)", res.Predicted, res.Time, ratio)
	}
}

func TestRunParallelValidation(t *testing.T) {
	pr, _ := Generate(Config{Rows: 12, Cols: 4, Iters: 1, P: 3})
	rt, _ := hmpi.New(hmpi.Config{Cluster: hnoc.Homogeneous(3, 10)})
	defer rt.Finalize()
	err := rt.Run(func(h *hmpi.Process) error {
		_, err := RunParallel(h.CommWorld(), pr, []int{6, 6, 6}, false) // sums to 18 != 12
		return err
	})
	if err == nil {
		t.Fatal("bad heights accepted")
	}
}
