package mapper_test

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"testing"

	"repro/internal/apps/em3d"
	"repro/internal/apps/jacobi"
	"repro/internal/apps/matmul"
	"repro/internal/estimator"
	"repro/internal/hnoc"
	"repro/internal/mapper"
	"repro/internal/pmdl"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/search.golden")

// exhaustiveLimit is the default Options.ExhaustiveLimit: StrategyAuto
// searches exhaustively up to this many candidates.
const exhaustiveLimit = 200_000

// goldenCluster is one network of the search golden, with its placement
// (world rank -> machine; nil means one process per machine).
type goldenCluster struct {
	name      string
	cluster   *hnoc.Cluster
	placement []int
}

func goldenClusters() []goldenCluster {
	degraded := hnoc.Paper9()
	degraded.DegradeLink(1, 2, 8)
	fat, fatPlace := hnoc.FatNode3x8()
	shm := hnoc.SharedMemory()
	twins, twinPlace := hnoc.FatNodes([]float64{46, 46, 106}, []int{3, 3, 2},
		[]hnoc.LinkSpec{shm, shm, shm}, hnoc.Ethernet100())
	return []goldenCluster{
		{"paper9", hnoc.Paper9(), nil},
		{"paper9-degraded", degraded, nil},
		{"homogeneous9", hnoc.Homogeneous(9, 46), nil},
		{"fatnode3x8", fat, fatPlace},
		{"fatnode-twins", twins, twinPlace},
	}
}

// goldenModel is one model instance of the search golden.
type goldenModel struct {
	name  string
	model *pmdl.Model
	args  []any
}

// goldenModels returns the em3d, jacobi and matmul instances at small
// sizes with 3 to 6 abstract processors.
func goldenModels(t *testing.T) []goldenModel {
	var out []goldenModel
	for p := 3; p <= 6; p++ {
		e, err := em3d.Generate(em3d.Config{P: p, TotalNodes: 20_000, Light: true})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, goldenModel{fmt.Sprintf("em3d-p%d", p), em3d.Model(), e.ModelArgs()})
		j, err := jacobi.Generate(jacobi.Config{Rows: 120, Cols: 120, Iters: 2, P: p})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, goldenModel{fmt.Sprintf("jacobi-p%d", p), jacobi.Model(), j.ModelArgs(j.UniformHeights())})
	}
	return append(out, goldenModel{"matmul-p4", matmul.Model(), matmul.NewHomogeneous(2, 8, 4).ModelArgs()})
}

// ranks returns the cluster's placement, one process per machine when it
// has none.
func (gc goldenCluster) ranks() []int {
	if gc.placement != nil {
		return gc.placement
	}
	placement := make([]int, gc.cluster.Size())
	for r := range placement {
		placement[r] = r
	}
	return placement
}

// goldenSolve builds the selection problem the way hmpi's Config.solve
// does — every rank available, the parent rank pinned to the model's
// parent coordinate, nominal machine speeds, the estimator's hooks bound
// lazily — and solves it with StrategyAuto.
func goldenSolve(gc goldenCluster, inst *pmdl.Instance, parent int) (mapper.Assignment, error) {
	placement := gc.ranks()
	speeds := make([]float64, len(placement))
	avail := make([]int, len(placement))
	for r, m := range placement {
		speeds[r] = gc.cluster.Machines[m].Speed
		avail[r] = r
	}
	pr := mapper.Problem{
		P:       inst.NumProcs,
		Avail:   avail,
		Fixed:   map[int]int{inst.Parent: parent},
		Weights: inst.CompVolume,
		SpeedOf: func(r int) float64 { return speeds[r] },
	}
	return mapper.SolveLazy(pr, mapper.Options{}, func(pr *mapper.Problem) error {
		est, err := estimator.New(inst, gc.cluster, speeds, placement)
		if err != nil {
			return err
		}
		pr.Objective = est.Session().Timeof
		pr.LowerBound = est.LowerBound
		pr.Classes = est.ProcessClasses(pr.Avail)
		pr.CanonicalKey = est.AppendCanonicalKey
		return nil
	})
}

// treeSize is the number of complete candidates of the exhaustive search
// with the parent pinned: (n-1)(n-2)...(n-p+1).
func treeSize(n, p int) int64 {
	f := int64(1)
	for i := 1; i < p; i++ {
		f *= int64(n - i)
	}
	return f
}

// TestSearchGolden pins, for every exhaustive selection StrategyAuto makes
// for the em3d, jacobi and matmul models at small sizes on five networks,
// with the host (rank 0) or the fastest process as the parent, what the
// search returns — the predicted time as a float64 bit pattern and the
// ranks — and what it cost: the candidates scored, the candidates
// scored for free (symmetric ones and pruned ones), and their total, which
// is the size of the permutation tree. A line per field, so a diff names
// the field that moved; testdata/search.golden was captured before the
// exhaustive engine enumerated orbits.
func TestSearchGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, gc := range goldenClusters() {
		placement := gc.ranks()
		n := len(placement)
		fastest := 0
		for r, m := range placement {
			if gc.cluster.Machines[m].Speed > gc.cluster.Machines[placement[fastest]].Speed {
				fastest = r
			}
		}
		for _, gm := range goldenModels(t) {
			inst, err := gm.model.Instantiate(gm.args...)
			if err != nil {
				t.Fatalf("%s: %v", gm.name, err)
			}
			if treeSize(n, inst.NumProcs)*int64(n) > exhaustiveLimit {
				continue // StrategyAuto runs the heuristics here
			}
			for _, parent := range []int{0, fastest} {
				if parent == fastest && fastest == 0 {
					continue
				}
				name := fmt.Sprintf("%s %s parent=%d", gc.name, gm.name, parent)
				a, err := goldenSolve(gc, inst, parent)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				st := a.Stats
				leaves := st.Evaluations + st.CacheHits + st.Pruned
				if leaves != treeSize(n, inst.NumProcs) {
					t.Fatalf("%s: %d leaves accounted, the tree has %d", name, leaves, treeSize(n, inst.NumProcs))
				}
				fmt.Fprintf(&buf, "%s time %016x %v\n", name, math.Float64bits(a.Time), a.Time)
				fmt.Fprintf(&buf, "%s ranks %v\n", name, a.Ranks)
				fmt.Fprintf(&buf, "%s evaluations %d\n", name, st.Evaluations)
				fmt.Fprintf(&buf, "%s hits+pruned %d\n", name, st.CacheHits+st.Pruned)
				fmt.Fprintf(&buf, "%s leaves %d\n", name, leaves)
			}
		}
	}
	const golden = "testdata/search.golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("search golden drifted; diff testdata/search.golden against a -update run\n got:\n%s", buf.String())
	}
}
