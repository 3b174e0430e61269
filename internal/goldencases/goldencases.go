// Package goldencases lists the model instances the pricing goldens pin:
// pmdl's instances.golden (what Instantiate and BuildDAG compute) and
// estimator's timeof.golden (what the replay predicts on them). Both read
// one list, so an instance added for one is pinned by the other too. Only
// tests import it.
package goldencases

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/apps"
	"repro/internal/apps/em3d"
	"repro/internal/apps/jacobi"
	"repro/internal/apps/matmul"
	"repro/internal/hnoc"
	"repro/internal/jobspec"
	"repro/internal/pmdl"
)

// Case is one model bound to one argument list (nil: AutoInstantiate).
type Case struct {
	Name  string
	Model *pmdl.Model
	Args  []any
}

// lister accumulates cases and keeps the first error.
type lister struct {
	cases []Case
	err   error
}

// add appends one case per plan the program prices under the cluster's
// nominal speeds — what a job's HMPI_Timeof calls instantiate. err is the
// program's generation error.
func (l *lister) add(name string, cluster *hnoc.Cluster, prog apps.Program, err error) {
	if l.err != nil {
		return
	}
	var plans []apps.Plan
	if err == nil {
		plans, err = prog.Plans(cluster.Speeds())
	}
	if err != nil {
		l.err = fmt.Errorf("%s: %w", name, err)
		return
	}
	for i, plan := range plans {
		n := name
		if len(plans) > 1 {
			n = fmt.Sprintf("%s/plan%d", name, i)
		}
		l.cases = append(l.cases, Case{n, prog.Model(), plan.ModelArgs()})
	}
}

func (l *lister) em3d(name string, cluster *hnoc.Cluster, nodes, p int) {
	pr, err := em3d.Generate(em3d.Config{P: p, TotalNodes: nodes, Light: true})
	l.add(name, cluster, &em3d.Program{Problem: pr, Opts: em3d.RunOptions{Iters: 2}}, err)
}

func (l *lister) jacobi(name string, cluster *hnoc.Cluster, grid, p int) {
	pr, err := jacobi.Generate(jacobi.Config{Rows: grid, Cols: grid, Iters: 2, P: p})
	l.add(name, cluster, &jacobi.Program{Problem: pr}, err)
}

func (l *lister) matmul(name string, cluster *hnoc.Cluster, n, r, m int, ls []int) {
	pr, err := matmul.Generate(matmul.Config{M: m, R: r, N: n})
	l.add(name, cluster, &matmul.Program{Problem: pr, Ls: ls}, err)
}

// Cases lists the instances: the three shipped models at the paper's
// sizes (matmul once per candidate block size of the L=0 search), the 32
// small job shapes of the benchmark's select-cold and svc-repeat workloads
// (bench/gen.go's jobSpecs with the seed's jitter at zero), and every .mpc
// in the given directories auto-instantiated.
func Cases(mpcDirs ...string) ([]Case, error) {
	paper9 := hnoc.Paper9()
	var l lister
	l.em3d("paper/em3d", paper9, 400_000, 9)
	l.matmul("paper/matmul", paper9, 90, 9, 3, jobspec.CandidateBlockSizes(3, 90))
	l.jacobi("paper/jacobi", paper9, 1800, 9)

	for k := 0; k < 8; k++ {
		l.em3d(fmt.Sprintf("small/em3d%d", k), paper9, 6_000+1_000*k, 6)
	}
	for k := 0; k < 8; k++ {
		l.jacobi(fmt.Sprintf("small/jacobi%d", k), paper9, 100+16*k, 6)
	}
	for k := 0; k < 8; k++ {
		l.matmul(fmt.Sprintf("small/matmul%d", k), paper9, 12+3*(k%4), 6+k/4, 3, []int{3})
	}
	wide := &hnoc.Cluster{Remote: hnoc.Ethernet100(), Local: hnoc.SharedMemory()}
	for i, s := range []float64{46, 176, 106, 9, 46, 60, 88, 30, 46, 120, 75, 20, 46, 150, 95, 12} {
		wide.Machines = append(wide.Machines, hnoc.Machine{Name: fmt.Sprintf("wide%02d", i), Speed: s})
	}
	for k := 0; k < 8; k++ {
		p := 14 + 2*(k%2)
		if k < 4 {
			l.em3d(fmt.Sprintf("small/wide-em3d%d", k), wide, 16_000+4_000*k, p)
		} else {
			l.jacobi(fmt.Sprintf("small/wide-jacobi%d", k), wide, 240+40*(k-4), p)
		}
	}
	if l.err != nil {
		return nil, l.err
	}

	var files []string
	for _, dir := range mpcDirs {
		m, err := filepath.Glob(filepath.Join(dir, "*.mpc"))
		if err != nil {
			return nil, err
		}
		files = append(files, m...)
	}
	sort.Strings(files)
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		m, err := pmdl.ParseModel(string(src))
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		l.cases = append(l.cases, Case{"auto/" + filepath.Base(f), m, nil})
	}
	return l.cases, nil
}

// Matmul returns the cases of one matmul problem on Paper9, one per block
// size of ls: Matmul(90, 9, 3, jobspec.CandidateBlockSizes(3, 90)) is the
// paper's L=0 search.
func Matmul(n, r, m int, ls []int) ([]Case, error) {
	var l lister
	l.matmul("matmul", hnoc.Paper9(), n, r, m, ls)
	return l.cases, l.err
}
