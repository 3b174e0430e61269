package matmul

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/apps"
	"repro/internal/estimator"
	"repro/internal/hmpi"
	"repro/internal/hnoc"
	"repro/internal/mapper"
	"repro/internal/mpi"
)

func TestGenerateValidation(t *testing.T) {
	for name, cfg := range map[string]Config{
		"zero m": {M: 0, R: 2, N: 4},
		"zero r": {M: 2, R: 0, N: 4},
		"n < m":  {M: 3, R: 2, N: 2},
		"zero n": {M: 2, R: 2, N: 0},
	} {
		if _, err := Generate(cfg); err != nil {
			continue
		}
		t.Errorf("%s accepted", name)
	}
}

func TestDistGeometry(t *testing.T) {
	grid := [][]float64{{46, 46, 46}, {46, 46, 46}, {176, 106, 9}}
	d, err := NewHetero(grid, 9, 18, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Owned blocks across the grid must cover the matrix.
	total := 0
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			total += d.OwnedBlocks(i, j)
		}
	}
	if total != 18*18 {
		t.Fatalf("owned blocks sum to %d, want 324", total)
	}
	// Rank/grid round trip.
	for rank := 0; rank < 9; rank++ {
		i, j := d.GridOf(rank)
		if d.RankOf(i, j) != rank {
			t.Fatalf("rank mapping broken at %d", rank)
		}
	}
	// Owner helpers agree with the partition.
	for rho := 0; rho < 9; rho++ {
		j := d.ColOwner(rho)
		if rho < d.ColStart[j] || rho >= d.ColStart[j]+d.W[j] {
			t.Fatalf("ColOwner(%d) = %d inconsistent", rho, j)
		}
		for col := 0; col < 3; col++ {
			i := d.RowOwnerInColumn(rho, col)
			if rho < d.RowStart[i][col] || rho >= d.RowStart[i][col]+d.H[i][col] {
				t.Fatalf("RowOwnerInColumn(%d,%d) = %d inconsistent", rho, col, i)
			}
		}
	}
}

func TestResidueCount(t *testing.T) {
	d := NewHomogeneous(2, 7, 3) // L = 2, N = 7: residues 0 -> 4, 1 -> 3
	if d.ResidueCount(0) != 4 || d.ResidueCount(1) != 3 {
		t.Fatalf("residue counts %d %d, want 4 3", d.ResidueCount(0), d.ResidueCount(1))
	}
	sum := 0
	for rho := 0; rho < d.L(); rho++ {
		sum += d.ResidueCount(rho)
	}
	if sum != 7 {
		t.Fatalf("residue counts sum to %d", sum)
	}
}

func TestSerialMultiplyIdentity(t *testing.T) {
	pr, err := Generate(Config{M: 2, R: 2, N: 2, RealMath: true})
	if err != nil {
		t.Fatal(err)
	}
	// Make B the identity: C must equal A.
	dim := pr.N * pr.R
	for i := range pr.B {
		pr.B[i] = 0
	}
	for i := 0; i < dim; i++ {
		pr.B[i*dim+i] = 1
	}
	c := pr.SerialMultiply()
	for i := range c {
		if math.Abs(c[i]-pr.A[i]) > 1e-12 {
			t.Fatalf("C != A at %d: %v vs %v", i, c[i], pr.A[i])
		}
	}
}

// TestParallelMatchesSerial verifies the distributed multiplication
// against the serial reference for both distributions and awkward sizes
// (L dividing N and not), under the blocking and the pipelined schedule.
func TestParallelMatchesSerial(t *testing.T) {
	for _, tc := range []struct {
		name       string
		m, r, n, l int
		hetero     bool
	}{
		{"homog-2x2", 2, 2, 4, 2, false},
		{"homog-ragged", 2, 3, 5, 2, false},
		{"hetero-2x2", 2, 2, 6, 3, true},
		{"hetero-ragged", 2, 2, 7, 3, true},
		{"hetero-3x3", 3, 2, 6, 3, true},
		{"hetero-3x3-l6", 3, 2, 6, 6, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pr, err := Generate(Config{M: tc.m, R: tc.r, N: tc.n, RealMath: true})
			if err != nil {
				t.Fatal(err)
			}
			want := pr.SerialMultiply()

			var dist *Dist
			if tc.hetero {
				grid := make([][]float64, tc.m)
				for i := range grid {
					grid[i] = make([]float64, tc.m)
					for j := range grid[i] {
						grid[i][j] = float64(10 + 30*((i+j)%tc.m))
					}
				}
				dist, err = NewHetero(grid, tc.l, tc.n, tc.r)
				if err != nil {
					t.Fatal(err)
				}
			} else {
				dist = NewHomogeneous(tc.m, tc.n, tc.r)
			}

			for _, overlap := range []bool{false, true} {
				cluster := hnoc.Homogeneous(tc.m*tc.m, 50)
				rt, err := hmpi.New(hmpi.Config{Cluster: cluster})
				if err != nil {
					t.Fatal(err)
				}
				var got []float64
				err = rt.Run(func(h *hmpi.Process) error {
					c, err := RunParallel(h.CommWorld(), pr, dist, RunOptions{CollectC: true, Overlap: overlap})
					if err != nil {
						return err
					}
					if h.IsHost() {
						got = c
					}
					return nil
				})
				rt.Finalize()
				if err != nil {
					t.Fatalf("overlap=%v: %v", overlap, err)
				}
				if len(got) != len(want) {
					t.Fatalf("overlap=%v: C has %d elements, want %d", overlap, len(got), len(want))
				}
				for i := range want {
					if math.Abs(got[i]-want[i]) > 1e-9 {
						t.Fatalf("overlap=%v: C[%d] = %v, want %v", overlap, i, got[i], want[i])
					}
				}
			}
		})
	}
}

func TestHMPIRunEndToEnd(t *testing.T) {
	pr, err := Generate(Config{M: 3, R: 2, N: 6, RealMath: true})
	if err != nil {
		t.Fatal(err)
	}
	want := pr.SerialMultiply()
	prog := &Program{Problem: pr, Ls: []int{3, 6}, Opts: RunOptions{CollectC: true}}
	res, err := apps.RunOn(hnoc.Paper9(), prog, apps.HMPI)
	if err != nil {
		t.Fatal(err)
	}
	if res.Time <= 0 || res.Predicted <= 0 {
		t.Fatalf("times: %v predicted %v", res.Time, res.Predicted)
	}
	if l := prog.Dist.L(); l != 3 && l != 6 {
		t.Fatalf("chosen L = %d not among candidates", l)
	}
	if len(res.Selection) != 9 {
		t.Fatalf("selection %v", res.Selection)
	}
	for i := range want {
		if math.Abs(prog.C[i]-want[i]) > 1e-9 {
			t.Fatalf("HMPI C[%d] = %v, want %v", i, prog.C[i], want[i])
		}
	}
}

func TestMPIRunEndToEnd(t *testing.T) {
	pr, err := Generate(Config{M: 2, R: 2, N: 4, RealMath: true})
	if err != nil {
		t.Fatal(err)
	}
	want := pr.SerialMultiply()
	prog := &Program{Problem: pr, Opts: RunOptions{CollectC: true}}
	if _, err := apps.RunOn(hnoc.Paper9(), prog, apps.MPI); err != nil {
		t.Fatal(err)
	}
	if l := prog.Dist.L(); l != 2 {
		t.Fatalf("baseline L = %d, want m", l)
	}
	for i := range want {
		if math.Abs(prog.C[i]-want[i]) > 1e-9 {
			t.Fatalf("MPI C[%d] = %v, want %v", i, prog.C[i], want[i])
		}
	}
}

// TestHMPIBeatsMPIOnPaperCluster checks the paper's headline MM result:
// the heterogeneous distribution on an HMPI-selected group beats the
// homogeneous distribution by roughly 3x on the 9-machine network.
func TestHMPIBeatsMPIOnPaperCluster(t *testing.T) {
	pr, err := Generate(Config{M: 3, R: 9, N: 90})
	if err != nil {
		t.Fatal(err)
	}
	prog := &Program{Problem: pr, Ls: []int{9}}
	hres, err := apps.RunOn(hnoc.Paper9(), prog, apps.HMPI)
	if err != nil {
		t.Fatal(err)
	}
	mres, err := apps.RunOn(hnoc.Paper9(), prog, apps.MPI)
	if err != nil {
		t.Fatal(err)
	}
	speedup := float64(mres.Time) / float64(hres.Time)
	if speedup < 1.5 {
		t.Fatalf("MM speedup only %.2fx (HMPI %v, MPI %v)", speedup, hres.Time, mres.Time)
	}
	t.Logf("MM speedup %.2fx (HMPI %.4gs, MPI %.4gs, selection %v)",
		speedup, float64(hres.Time), float64(mres.Time), hres.Selection)
}

func TestArrangeGrid(t *testing.T) {
	speeds := []float64{46, 46, 46, 46, 46, 46, 176, 106, 9}
	grid, ranks, err := ArrangeGrid(speeds, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	if grid[0][0] != 46 || ranks[0] != 0 {
		t.Fatalf("host not at (0,0): grid %v ranks %v", grid, ranks)
	}
	if grid[0][1] != 176 || ranks[1] != 6 {
		t.Fatalf("fastest non-host not second: grid %v ranks %v", grid, ranks)
	}
	if grid[2][2] != 9 {
		t.Fatalf("slowest not last: %v", grid)
	}
	if _, _, err := ArrangeGrid(speeds[:3], 0, 3); err == nil {
		t.Fatal("undersized speed list accepted")
	}
}

// TestArrangeGridCountsLiveProcesses: a dead process (speed 0, as the
// self-healing planner marks it) takes no place in the grid, so nine
// processes with one dead cannot fill 3x3 but can fill 2x2.
func TestArrangeGridCountsLiveProcesses(t *testing.T) {
	speeds := []float64{46, 46, 46, 46, 46, 46, 0, 106, 9}
	_, _, err := ArrangeGrid(speeds, 0, 3)
	if want := "matmul: 8 live processes cannot fill a 3x3 grid"; err == nil || err.Error() != want {
		t.Fatalf("ArrangeGrid = %v, want %q", err, want)
	}
	_, ranks, err := ArrangeGrid(speeds, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range ranks {
		if speeds[r] <= 0 {
			t.Fatalf("dead rank %d placed in the grid: %v", r, ranks)
		}
	}
}

func TestKernelUnits(t *testing.T) {
	pr, _ := Generate(Config{M: 2, R: 10, N: 4})
	// 2*10^3 flops per update.
	want := 2000.0 / hnoc.FlopsPerSpeedUnit
	if got := pr.KernelUnits(1); math.Abs(got-want) > 1e-15 {
		t.Fatalf("KernelUnits(1) = %v, want %v", got, want)
	}
}

func TestRunParallelValidation(t *testing.T) {
	pr, _ := Generate(Config{M: 3, R: 2, N: 6})
	dist := NewHomogeneous(3, 6, 2)
	rt, err := hmpi.New(hmpi.Config{Cluster: hnoc.Homogeneous(4, 10)})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Finalize()
	err = rt.Run(func(h *hmpi.Process) error {
		_, err := RunParallel(h.CommWorld(), pr, dist, RunOptions{})
		return err
	})
	if err == nil {
		t.Fatal("grid/world size mismatch accepted")
	}
	badDist := NewHomogeneous(3, 7, 2)
	rt2, _ := hmpi.New(hmpi.Config{Cluster: hnoc.Homogeneous(9, 10)})
	defer rt2.Finalize()
	err = rt2.Run(func(h *hmpi.Process) error {
		_, err := RunParallel(h.CommWorld(), pr, badDist, RunOptions{})
		return err
	})
	if err == nil {
		t.Fatal("mismatched distribution accepted")
	}
}

// TestTimeofOrdersBlockSizesConsistently: the prediction that drives the
// block-size search must rank candidate l values in the same order as the
// simulated execution (here: l=3, the degenerate distribution, must be
// predicted and measured slower than l=9).
func TestTimeofOrdersBlockSizesConsistently(t *testing.T) {
	pr, err := Generate(Config{M: 3, R: 9, N: 45})
	if err != nil {
		t.Fatal(err)
	}
	measure := func(l int) (predicted float64, simulated float64) {
		res, err := apps.RunOn(hnoc.Paper9(), &Program{Problem: pr, Ls: []int{l}}, apps.HMPI)
		if err != nil {
			t.Fatal(err)
		}
		return res.Predicted, float64(res.Time)
	}
	p3, s3 := measure(3)
	p9, s9 := measure(9)
	if !(p3 > p9) {
		t.Errorf("prediction does not penalise l=m: %v <= %v", p3, p9)
	}
	if !(s3 > s9) {
		t.Errorf("simulation does not penalise l=m: %v <= %v", s3, s9)
	}
}

// TestHMPISearchPicksCompetitiveL: given candidates, the chosen l's
// simulated time is not worse than the worst candidate (search sanity).
func TestHMPISearchPicksCompetitiveL(t *testing.T) {
	pr, err := Generate(Config{M: 3, R: 9, N: 45})
	if err != nil {
		t.Fatal(err)
	}
	prog := &Program{Problem: pr, Ls: []int{3, 9, 15, 45}}
	if _, err := apps.RunOn(hnoc.Paper9(), prog, apps.HMPI); err != nil {
		t.Fatal(err)
	}
	if prog.Dist.L() == 3 {
		t.Errorf("search chose the degenerate block size l=m")
	}
}

// TestWarmPredictBuildsNoTaskGraph: pricing a plan the selection cache has
// already solved is a lookup — the key comes from the instance and the
// cluster, so no estimator, and so no task graph, is built for a hit. An
// allocation bound, not a timing: a warm hmpi.PredictTimeof allocates less
// than a quarter of the bytes one estimator.New for the same instance
// does. Bytes, not objects: the task graph is a handful of flat arrays, so
// building one costs fewer objects than the warm path's instantiation, but
// its size in bytes grows with the graph.
func TestWarmPredictBuildsNoTaskGraph(t *testing.T) {
	grid := [][]float64{{46, 46, 46}, {46, 46, 46}, {176, 106, 9}}
	d, err := NewHetero(grid, 3, 18, 6) // one of the benchmark's small matmul shapes
	if err != nil {
		t.Fatal(err)
	}
	args, cluster := d.ModelArgs(), hnoc.Paper9()
	inst, err := Model().Instantiate(args...)
	if err != nil {
		t.Fatal(err)
	}
	build := bytesPerRun(5, func() {
		if _, err := estimator.New(inst, cluster, cluster.Speeds(), mpi.OneProcessPerMachine(cluster)); err != nil {
			t.Fatal(err)
		}
	})
	cfg := hmpi.Config{Cluster: cluster, Selection: mapper.NewSelectionCache(0)}
	cold, _, err := hmpi.PredictTimeof(cfg, Model(), args...)
	if err != nil {
		t.Fatal(err)
	}
	warm := bytesPerRun(20, func() {
		got, stats, err := hmpi.PredictTimeof(cfg, Model(), args...)
		if err != nil || got != cold || !stats.Memoized {
			t.Fatalf("warm prediction %v (memoized %v, err %v), cold %v", got, stats.Memoized, err, cold)
		}
	})
	t.Logf("estimator.New %.0f B, warm PredictTimeof %.0f B", build, warm)
	if warm >= build/4 {
		t.Fatalf("a warm PredictTimeof allocates %.0f B, estimator.New %.0f B: a hit still builds the task graph", warm, build)
	}
}

// bytesPerRun is testing.AllocsPerRun in bytes: the mean heap bytes one
// call of f allocates, after a warm-up call.
func bytesPerRun(runs int, f func()) float64 {
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
