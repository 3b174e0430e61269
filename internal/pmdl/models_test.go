package pmdl

// End-to-end tests of the two performance models published in the paper:
// Em3d (Figure 4) and ParallelAxB (Figure 7). The sources below follow the
// figures; two typesetting defects of the figure are corrected (the
// four-dimensional declaration of h, and the figure's w[I] in the first
// link clause where the accompanying text derives w[J]).

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/sched"
)

const em3dSrc = `
algorithm Em3d(int p, int k, int d[p], int dep[p][p]) {
  coord I=p;
  node {I>=0: bench*(d[I]/k);};
  link (L=p) {
    I>=0 && I!=L && (dep[I][L] > 0) :
      length*(dep[I][L]*sizeof(double)) [L]->[I];
  };
  parent[0];
  scheme {
    int current, owner, remote;
    par (owner = 0; owner < p; owner++)
        par (remote = 0; remote < p; remote++)
             if ((owner != remote) && (dep[owner][remote] > 0))
                100%%[remote]->[owner];
    par (current = 0; current < p; current++) 100%%[current];
  };
}
`

const parallelAxBSrc = `
typedef struct {int I; int J;} Processor;

algorithm ParallelAxB(int m, int r, int n, int l, int w[m],
                      int h[m][m][m][m])
{
  coord I=m, J=m;
  node {I>=0 && J>=0: bench*(w[J]*(h[I][J][I][J])*(n/l)*(n/l)*n);};
  link (K=m, L=m)
  {
    I>=0 && J>=0 && I!=K :
      length*(w[J]*(h[I][J][I][J])*(n/l)*(n/l)*(r*r)*sizeof(double))
              [I, J] -> [K, J];
    I>=0 && J>=0 && J!=L && ((h[I][J][K][L]) > 0) :
      length*(w[J]*(h[I][J][K][L])*(n/l)*(n/l)*(r*r)*sizeof(double))
              [I, J] -> [K, L];
  };
  parent[0,0];
  scheme
  {
    int k;
    Processor Root, Receiver, Current;
    for(k = 0; k < n; k++)
    {
      int Acolumn = k%l, Arow;
      int Brow = k%l, Bcolumn;
      par(Arow = 0; Arow < l; )
      {
        GetProcessor(Arow, Acolumn, m, h, w, &Root);
        par(Receiver.I = 0; Receiver.I < m; Receiver.I++)
          par(Receiver.J = 0; Receiver.J < m; Receiver.J++)
            if((Root.I != Receiver.I || Root.J != Receiver.J) &&
               Root.J != Receiver.J)
              if((h[Root.I][Root.J][Receiver.I][Receiver.J]) > 0)
                (100/(w[Root.J]*(n/l)))%%
                       [Root.I, Root.J] -> [Receiver.I, Receiver.J];
        Arow += h[Root.I][Root.J][Root.I][Root.J];
      }
      par(Bcolumn = 0; Bcolumn < l; )
      {
        GetProcessor(Brow, Bcolumn, m, h, w, &Root);
        par(Receiver.I = 0; Receiver.I < m; Receiver.I++)
          if(Root.I != Receiver.I)
            (100/((h[Root.I][Root.J][Root.I][Root.J])*(n/l))) %%
                  [Root.I, Root.J] -> [Receiver.I, Root.J];
        Bcolumn += w[Root.J];
      }
      par(Current.I = 0; Current.I < m; Current.I++)
        par(Current.J = 0; Current.J < m; Current.J++)
          (100/n) %% [Current.I, Current.J];
    }
  };
};
`

func TestEm3dModelParses(t *testing.T) {
	m, err := ParseModel(em3dSrc)
	if err != nil {
		t.Fatal(err)
	}
	alg := m.File.Algorithm
	if alg.Name != "Em3d" {
		t.Errorf("name = %q", alg.Name)
	}
	if len(alg.Params) != 4 || alg.Params[2].Name != "d" || len(alg.Params[3].Dims) != 2 {
		t.Errorf("params parsed wrong: %+v", alg.Params)
	}
	if len(alg.Coords) != 1 || alg.Coords[0].Name != "I" {
		t.Errorf("coords parsed wrong")
	}
	if len(alg.Nodes) != 1 || alg.Link == nil || len(alg.Link.Clauses) != 1 {
		t.Errorf("node/link parsed wrong")
	}
	if len(alg.Parent) != 1 {
		t.Errorf("parent parsed wrong")
	}
}

func em3dInstance(t *testing.T) *Instance {
	t.Helper()
	m, err := ParseModel(em3dSrc)
	if err != nil {
		t.Fatal(err)
	}
	d := []int{200, 300, 500}
	dep := [][]int{
		{0, 10, 5},
		{10, 0, 20},
		{5, 20, 0},
	}
	inst, err := m.Instantiate(3, 100, d, dep)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestEm3dInstantiate(t *testing.T) {
	inst := em3dInstance(t)
	if inst.NumProcs != 3 {
		t.Fatalf("NumProcs = %d", inst.NumProcs)
	}
	// node: bench*(d[I]/k), integer division: 200/100=2, 300/100=3, 500/100=5.
	want := []float64{2, 3, 5}
	for i, w := range want {
		if inst.CompVolume[i] != w {
			t.Errorf("CompVolume[%d] = %v, want %v", i, inst.CompVolume[i], w)
		}
	}
	// link: from L to I carries dep[I][L]*8 bytes.
	if inst.CommVolume[1][0] != 10*8 {
		t.Errorf("CommVolume[1][0] = %v, want 80", inst.CommVolume[1][0])
	}
	if inst.CommVolume[2][1] != 20*8 {
		t.Errorf("CommVolume[2][1] = %v, want 160", inst.CommVolume[2][1])
	}
	if inst.CommVolume[0][0] != 0 {
		t.Errorf("self volume non-zero")
	}
	if inst.Parent != 0 {
		t.Errorf("parent = %d", inst.Parent)
	}
}

func TestEm3dDAGStructure(t *testing.T) {
	inst := em3dInstance(t)
	dag, err := inst.BuildDAG()
	if err != nil {
		t.Fatal(err)
	}
	var computes, transfers int
	for i := range dag.Size() {
		switch task := dag.Task(i); task.Kind {
		case sched.KindCompute:
			computes++
		case sched.KindTransfer:
			transfers++
		}
	}
	if computes != 3 {
		t.Errorf("computes = %d, want 3", computes)
	}
	// dep has 6 non-zero off-diagonal entries.
	if transfers != 6 {
		t.Errorf("transfers = %d, want 6", transfers)
	}
}

func TestEm3dEstimatedTimeTracksSpeeds(t *testing.T) {
	inst := em3dInstance(t)
	dag, err := inst.BuildDAG()
	if err != nil {
		t.Fatal(err)
	}
	res := func(speeds []float64) sched.Resources {
		return sched.Resources{
			Speed:        func(p int) float64 { return speeds[p] },
			Link:         func(src, dst int) sched.Link { return sched.Link{Latency: 1e-4, Bandwidth: 1e7} },
			SerialiseNIC: true,
		}
	}
	// Largest subbody (vol 5) on the fastest machine beats the reverse.
	good := sched.MakespanInto(new(sched.Scratch), dag, 3, res([]float64{1, 2, 10}))
	bad := sched.MakespanInto(new(sched.Scratch), dag, 3, res([]float64{10, 2, 1}))
	if good >= bad {
		t.Fatalf("good mapping %v not faster than bad mapping %v", good, bad)
	}
	// Communication matters: zero-latency infinite bandwidth is faster.
	ideal := sched.Resources{
		Speed:        func(p int) float64 { return []float64{1, 2, 10}[p] },
		Link:         func(src, dst int) sched.Link { return sched.Link{Bandwidth: 1e15} },
		SerialiseNIC: true,
	}
	if sched.MakespanInto(new(sched.Scratch), dag, 3, ideal) > good {
		t.Fatalf("ideal network slower than real one")
	}
}

func TestParallelAxBParses(t *testing.T) {
	m, err := ParseModel(parallelAxBSrc)
	if err != nil {
		t.Fatal(err)
	}
	alg := m.File.Algorithm
	if alg.Name != "ParallelAxB" {
		t.Fatalf("name = %q", alg.Name)
	}
	if len(m.File.Typedefs) != 1 || m.File.Typedefs[0].Name != "Processor" {
		t.Fatalf("typedef parsed wrong")
	}
	if len(alg.Coords) != 2 {
		t.Fatalf("coords = %d", len(alg.Coords))
	}
	if len(alg.Link.Vars) != 2 || len(alg.Link.Clauses) != 2 {
		t.Fatalf("link parsed wrong")
	}
	if len(alg.Parent) != 2 {
		t.Fatalf("parent parsed wrong")
	}
}

// uniformAxB instantiates ParallelAxB on a 2x2 grid with uniform unit
// rectangles (l=2), n=4 blocks, r=2.
func uniformAxB(t *testing.T) *Instance {
	t.Helper()
	m, err := ParseModel(parallelAxBSrc)
	if err != nil {
		t.Fatal(err)
	}
	const (
		grid = 2
		r    = 2
		n    = 4
		l    = 2
	)
	w := []int{1, 1}
	h := make([][][][]int, grid)
	for i := range h {
		h[i] = make([][][]int, grid)
		for j := range h[i] {
			h[i][j] = make([][]int, grid)
			for k := range h[i][j] {
				h[i][j][k] = make([]int, grid)
				for q := range h[i][j][k] {
					// Uniform 1-block rectangles: row intervals are
					// {i} and {k}; overlap is 1 when i == k.
					if i == k {
						h[i][j][k][q] = 1
					}
				}
			}
		}
	}
	inst, err := m.Instantiate(grid, r, n, l, w, h)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestParallelAxBInstantiate(t *testing.T) {
	inst := uniformAxB(t)
	if inst.NumProcs != 4 {
		t.Fatalf("NumProcs = %d", inst.NumProcs)
	}
	// node: w[J]*h*(n/l)^2*n = 1*1*2*2*4 = 16 for every processor.
	for p, v := range inst.CompVolume {
		if v != 16 {
			t.Errorf("CompVolume[%d] = %v, want 16", p, v)
		}
	}
	// B volume between same-column processors: 1*1*(n/l)^2*r^2*8 = 128.
	// Processor (0,0) is index 0, (1,0) is index 2 (row-major I,J).
	if inst.CommVolume[0][2] != 128 {
		t.Errorf("B volume (0,0)->(1,0) = %v, want 128", inst.CommVolume[0][2])
	}
	// A volume between same-row processors: also 128 here.
	if inst.CommVolume[0][1] != 128 {
		t.Errorf("A volume (0,0)->(0,1) = %v, want 128", inst.CommVolume[0][1])
	}
	// Diagonal pairs exchange A too (h>0 for equal rows only): (0,0) and
	// (1,1) have disjoint rows, so no volume.
	if inst.CommVolume[0][3] != 0 {
		t.Errorf("diagonal volume = %v, want 0", inst.CommVolume[0][3])
	}
	if inst.Parent != 0 {
		t.Errorf("parent = %d", inst.Parent)
	}
}

func TestParallelAxBDAG(t *testing.T) {
	inst := uniformAxB(t)
	dag, err := inst.BuildDAG()
	if err != nil {
		t.Fatal(err)
	}
	var computes, transfers int
	var units, bytes float64
	for i := range dag.Size() {
		switch task := dag.Task(i); task.Kind {
		case sched.KindCompute:
			computes++
			units += task.Units
		case sched.KindTransfer:
			transfers++
			bytes += task.Bytes
		}
	}
	// n=4 steps, 4 processors each: 16 compute tasks of (100/4)% each.
	if computes != 16 {
		t.Errorf("computes = %d, want 16", computes)
	}
	// Each step: pivot column rows l=2 owners send A to 1 same-row
	// receiver each (2 transfers), pivot row cols 2 owners send B to 1
	// same-column receiver (2 transfers): 4 per step, 16 total.
	if transfers != 16 {
		t.Errorf("transfers = %d, want 16", transfers)
	}
	// Total executed computation = 100% of all volumes (100/n exact here).
	var wantUnits float64
	for _, v := range inst.CompVolume {
		wantUnits += v
	}
	if math.Abs(units-wantUnits) > 1e-9 {
		t.Errorf("DAG compute units %v, want %v", units, wantUnits)
	}
	// Total transferred bytes = 100% of all link volumes (percentages
	// divide evenly in this configuration).
	wantBytes := inst.TotalCommVolume()
	if math.Abs(bytes-wantBytes) > 1e-9 {
		t.Errorf("DAG bytes %v, want %v", bytes, wantBytes)
	}
	// Schedule it.
	res := sched.Resources{
		Speed:        func(p int) float64 { return 100 },
		Link:         func(src, dst int) sched.Link { return sched.Link{Latency: 1e-4, Bandwidth: 1e7} },
		SerialiseNIC: true,
	}
	if ms := sched.MakespanInto(new(sched.Scratch), dag, 4, res); ms <= 0 {
		t.Errorf("makespan = %v", ms)
	}
}

func TestParallelAxBTimeofMonotoneInN(t *testing.T) {
	// Larger matrices must predict longer execution.
	m, err := ParseModel(parallelAxBSrc)
	if err != nil {
		t.Fatal(err)
	}
	res := sched.Resources{
		Speed:        func(p int) float64 { return 50 },
		Link:         func(src, dst int) sched.Link { return sched.Link{Latency: 1e-4, Bandwidth: 1e7} },
		SerialiseNIC: true,
	}
	w := []int{1, 1}
	h := make([][][][]int, 2)
	for i := range h {
		h[i] = make([][][]int, 2)
		for j := range h[i] {
			h[i][j] = make([][]int, 2)
			for k := range h[i][j] {
				h[i][j][k] = make([]int, 2)
				if i == k {
					h[i][j][k][0], h[i][j][k][1] = 1, 1
				}
			}
		}
	}
	prev := 0.0
	for _, n := range []int{2, 4, 8, 16} {
		inst, err := m.Instantiate(2, 2, n, 2, w, h)
		if err != nil {
			t.Fatal(err)
		}
		dag, err := inst.BuildDAG()
		if err != nil {
			t.Fatal(err)
		}
		ms := sched.MakespanInto(new(sched.Scratch), dag, 4, res)
		if ms <= prev {
			t.Fatalf("makespan not increasing: n=%d gives %v after %v", n, ms, prev)
		}
		prev = ms
	}
}

// TestModelSharedAcrossGoroutines: a compiled Model is read-only, so the
// applications compile theirs once and every job instantiates the same
// value. Eight goroutines instantiate one model and unroll its scheme at
// once; run under -race, any write to the shared AST or host table shows.
func TestModelSharedAcrossGoroutines(t *testing.T) {
	m, err := ParseModel(em3dSrc)
	if err != nil {
		t.Fatal(err)
	}
	instantiate := func() (*Instance, *sched.DAG, error) {
		inst, err := m.Instantiate(3, 100, []int{200, 300, 500}, [][]int{{0, 10, 5}, {10, 0, 20}, {5, 20, 0}})
		if err != nil {
			return nil, nil, err
		}
		dag, err := inst.BuildDAG()
		return inst, dag, err
	}
	want, wantDAG, err := instantiate()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				inst, dag, err := instantiate()
				if err != nil {
					t.Error(err)
					return
				}
				if !reflect.DeepEqual(inst.CompVolume, want.CompVolume) || !reflect.DeepEqual(inst.CommVolume, want.CommVolume) ||
					dag.Size() != wantDAG.Size() {
					t.Errorf("concurrent instance differs from the serial one")
					return
				}
			}
		}()
	}
	wg.Wait()
}
