package estimator

import (
	"testing"

	"repro/internal/hnoc"
	"repro/internal/pmdl"
)

const chainSrc = `
algorithm Chain(int p, int v[p], int c[p][p]) {
  coord I=p;
  node {I>=0: bench*(v[I]);};
  link (L=p) {
    I>=0 && I!=L && (c[I][L] > 0) : length*(c[I][L]) [L]->[I];
  };
  parent[0];
  scheme {
    int i, l;
    par (i = 0; i < p; i++)
      par (l = 0; l < p; l++)
        if ((i != l) && (c[i][l] > 0)) 100%%[l]->[i];
    par (i = 0; i < p; i++) 100%%[i];
  };
}
`

func chainInstance(t *testing.T) *pmdl.Instance {
	t.Helper()
	m, err := pmdl.ParseModel(chainSrc)
	if err != nil {
		t.Fatal(err)
	}
	v := []int{100, 400}
	c := [][]int{{0, 1000}, {1000, 0}}
	inst, err := m.Instantiate(2, v, c)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func testNet() (*hnoc.Cluster, []float64, []int) {
	c := &hnoc.Cluster{
		Remote: hnoc.LinkSpec{Protocol: hnoc.ProtoTCP, Latency: 1e-3, Bandwidth: 1e6},
		Local:  hnoc.LinkSpec{Protocol: hnoc.ProtoSHM, Latency: 0, Bandwidth: 1e9},
		Machines: []hnoc.Machine{
			{Name: "slow", Speed: 10},
			{Name: "fast", Speed: 100},
			{Name: "mid", Speed: 50},
		},
	}
	speeds := []float64{10, 100, 50}
	placement := []int{0, 1, 2}
	return c, speeds, placement
}

func TestTimeofPrefersGoodMappings(t *testing.T) {
	inst := chainInstance(t)
	cl, speeds, place := testNet()
	e, err := New(inst, cl, speeds, place)
	if err != nil {
		t.Fatal(err)
	}
	// Heavy abstract processor 1 (volume 400) on the fast machine.
	good := e.Timeof([]int{0, 1})
	bad := e.Timeof([]int{1, 0})
	if good >= bad {
		t.Fatalf("good mapping %v >= bad mapping %v", good, bad)
	}
	// Lower bound: compute of the heavy processor on the fast machine.
	if good < 400.0/100 {
		t.Fatalf("estimate %v below compute lower bound 4", good)
	}
}

func TestTimeofSharingPenalty(t *testing.T) {
	inst := chainInstance(t)
	cl, _, _ := testNet()
	// Two processes on the fast machine, one on the slow.
	place := []int{1, 1, 0}
	speeds := []float64{100, 100, 10}
	e, err := New(inst, cl, speeds, place)
	if err != nil {
		t.Fatal(err)
	}
	// Both abstract processors on the shared fast machine: each runs at
	// half speed, but communication is local.
	shared := e.Timeof([]int{0, 1})
	// Split across fast and slow machines.
	split := e.Timeof([]int{2, 1})
	if shared <= 0 || split <= 0 {
		t.Fatalf("estimates %v %v", shared, split)
	}
	// With 1 MB/s remote links and 2 KB of traffic, sharing the 100-speed
	// machine (50 each) still beats using the speed-10 machine.
	if shared >= split {
		t.Fatalf("sharing penalty mis-modelled: shared %v >= split %v", shared, split)
	}
}

func TestNewValidation(t *testing.T) {
	inst := chainInstance(t)
	cl, speeds, place := testNet()
	if _, err := New(inst, cl, speeds[:2], place); err == nil {
		t.Error("mismatched speeds length accepted")
	}
	badPlace := []int{0, 1, 99}
	if _, err := New(inst, cl, speeds, badPlace); err == nil {
		t.Error("out-of-range placement accepted")
	}
	badSpeeds := []float64{10, 0, 50}
	if _, err := New(inst, cl, badSpeeds, place); err == nil {
		t.Error("zero speed accepted")
	}
}

func TestNaiveVsDAGEstimator(t *testing.T) {
	// The naive estimator ignores overlap, so it must never be more
	// optimistic than the DAG estimator on this communication-heavy
	// model.
	inst := chainInstance(t)
	cl, speeds, place := testNet()
	e, err := New(inst, cl, speeds, place)
	if err != nil {
		t.Fatal(err)
	}
	cand := []int{0, 1}
	dag := e.Timeof(cand)
	naive := e.NaiveTimeof(cand)
	if naive < dag*0.5 {
		t.Fatalf("naive estimate %v implausibly below DAG estimate %v", naive, dag)
	}
}

func TestInstanceAccessor(t *testing.T) {
	inst := chainInstance(t)
	cl, speeds, place := testNet()
	e, err := New(inst, cl, speeds, place)
	if err != nil {
		t.Fatal(err)
	}
	if e.Instance() != inst {
		t.Fatal("Instance accessor broken")
	}
}
