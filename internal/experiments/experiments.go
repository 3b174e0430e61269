// Package experiments regenerates every figure of the paper's evaluation
// (Section 5) plus the additional validation and ablation tables of this
// reproduction, on the simulated 9-workstation network. Each generator
// returns a Figure — labelled series over a swept parameter, in simulated
// time or counts — that the hmpibench command prints.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/apps"
	"repro/internal/apps/em3d"
	"repro/internal/apps/matmul"
	"repro/internal/hnoc"
)

// Series is one labelled curve.
type Series struct {
	Name string
	Y    []float64
}

// Figure is one regenerated table/figure: a set of series over common X
// values.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	X      []float64
	Series []Series
	Notes  []string
}

// Generator produces one figure.
type Generator func() (*Figure, error)

// Registry maps figure IDs to their generators.
func Registry() map[string]Generator {
	return map[string]Generator{
		"9a":          Fig9a,
		"9b":          Fig9b,
		"10":          Fig10,
		"10b":         Fig10b,
		"11a":         Fig11a,
		"11b":         Fig11b,
		"timeof":      TableTimeof,
		"mapper":      TableMapper,
		"nic":         TableNICAblation,
		"estimator":   TableEstimatorAblation,
		"hetero":      TableHeterogeneity,
		"jacobi":      TableJacobi,
		"degradation": TableDegradation,
		"netdegrade":  TableNetDegrade,
		"search":      TableSearch,
		"coll":        TableColl,
		"hier":        TableHier,
		"overlap":     TableOverlap,
	}
}

// IDs returns the registry's figure identifiers in stable order.
func IDs() []string {
	reg := Registry()
	out := make([]string, 0, len(reg))
	for id := range reg {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// --- EM3D (Figure 9) ---------------------------------------------------

// em3dSizes is the swept problem size (total nodes over all subbodies).
var em3dSizes = []int{100_000, 200_000, 300_000, 400_000, 600_000, 800_000}

const em3dIters = 10

// versus runs the program under HMPI and as the plain-MPI baseline, each on
// its own runtime over the cluster, and returns the two algorithm times.
func versus(c *hnoc.Cluster, prog apps.Program) (hmpiTime, mpiTime float64, err error) {
	hres, err := apps.RunOn(c, prog, apps.HMPI)
	if err != nil {
		return 0, 0, err
	}
	mres, err := apps.RunOn(c, prog, apps.MPI)
	return float64(hres.Time), float64(mres.Time), err
}

func em3dPoint(nodes int) (hmpiTime, mpiTime float64, err error) {
	pr, err := em3d.Generate(em3d.Config{P: 9, TotalNodes: nodes, K: 1000, Light: true})
	if err != nil {
		return 0, 0, err
	}
	return versus(hnoc.Paper9(), &em3d.Program{Problem: pr, Opts: em3d.RunOptions{Iters: em3dIters}})
}

// Fig9a reproduces Figure 9(a): execution times of the EM3D algorithm,
// HMPI versus plain MPI, over growing problem size.
func Fig9a() (*Figure, error) {
	f := &Figure{
		ID:     "9a",
		Title:  "EM3D execution time, HMPI vs MPI (Figure 9a)",
		XLabel: "total nodes",
		YLabel: "time [s]",
	}
	var hs, ms []float64
	for _, n := range em3dSizes {
		h, m, err := em3dPoint(n)
		if err != nil {
			return nil, err
		}
		f.X = append(f.X, float64(n))
		hs = append(hs, h)
		ms = append(ms, m)
	}
	f.Series = []Series{{Name: "HMPI", Y: hs}, {Name: "MPI", Y: ms}}
	f.Notes = append(f.Notes,
		"9 subbodies with the deterministic irregular size pattern, 10 iterations,",
		"paper network (speeds 46x6, 176, 106, 9; switched 100 Mbit Ethernet).",
		"Paper result: HMPI almost 1.5x faster across sizes.")
	return f, nil
}

// Fig9b reproduces Figure 9(b): the speedup of the HMPI EM3D program over
// the MPI one.
func Fig9b() (*Figure, error) {
	base, err := Fig9a()
	if err != nil {
		return nil, err
	}
	f := &Figure{
		ID:     "9b",
		Title:  "EM3D speedup of HMPI over MPI (Figure 9b)",
		XLabel: base.XLabel,
		YLabel: "speedup",
		X:      base.X,
	}
	sp := make([]float64, len(base.X))
	for i := range sp {
		sp[i] = base.Series[1].Y[i] / base.Series[0].Y[i]
	}
	f.Series = []Series{{Name: "speedup", Y: sp}}
	f.Notes = append(f.Notes, "Paper result: speedup near 1.5x.")
	return f, nil
}

// --- Matrix multiplication (Figures 10 and 11) --------------------------

func mmPoint(r, n int, lCandidates []int) (hmpiTime, mpiTime float64, err error) {
	pr, err := matmul.Generate(matmul.Config{M: 3, R: r, N: n})
	if err != nil {
		return 0, 0, err
	}
	return versus(hnoc.Paper9(), &matmul.Program{Problem: pr, Ls: lCandidates})
}

// Fig10 reproduces Figure 10: the MM execution time of the HMPI program
// for different generalised block sizes l (r = 8), against the MPI
// baseline.
func Fig10() (*Figure, error) {
	const (
		r = 8
		n = 72
	)
	ls := []int{3, 4, 6, 8, 9, 12, 18, 24, 36, 72}
	f := &Figure{
		ID:     "10",
		Title:  "MM execution time vs generalised block size, r=8 (Figure 10)",
		XLabel: "generalised block size l",
		YLabel: "time [s]",
	}
	var hs, ms []float64
	var mpiTime float64
	for i, l := range ls {
		h, m, err := mmPoint(r, n, []int{l})
		if err != nil {
			return nil, err
		}
		if i == 0 {
			mpiTime = m
		}
		f.X = append(f.X, float64(l))
		hs = append(hs, h)
		ms = append(ms, mpiTime) // the baseline does not depend on l
	}
	f.Series = []Series{{Name: "HMPI", Y: hs}, {Name: "MPI", Y: ms}}
	f.Notes = append(f.Notes,
		fmt.Sprintf("3x3 grid, n=%d blocks of %dx%d elements (matrix %dx%d).", n, r, r, n*r, n*r),
		"Paper result: generalised block size matters, with l = m worst (at l = m",
		"every rectangle is 1x1, so the distribution degenerates to the homogeneous",
		"one) and a shallow optimum at moderate l. The simulation reproduces the",
		"l = m penalty and the shallow plateau; it lacks the cache effects that",
		"penalised very large l on the real testbed.")
	return f, nil
}

// Fig10b renders Figure 10's other reading: execution time over matrix
// size with one curve per generalised block size, plus the MPI baseline.
func Fig10b() (*Figure, error) {
	const r = 8
	ns := []int{24, 48, 72, 96}
	ls := []int{3, 9, 24}
	f := &Figure{
		ID:     "10b",
		Title:  "MM execution time vs matrix size for several l, r=8 (Figure 10, per-curve form)",
		XLabel: "matrix size [elements]",
		YLabel: "time [s]",
	}
	series := make([]Series, len(ls)+1)
	for i, l := range ls {
		series[i].Name = fmt.Sprintf("HMPI l=%d", l)
	}
	series[len(ls)].Name = "MPI"
	for _, n := range ns {
		f.X = append(f.X, float64(n*r))
		var mpiTime float64
		for i, l := range ls {
			h, m, err := mmPoint(r, n, []int{l})
			if err != nil {
				return nil, err
			}
			series[i].Y = append(series[i].Y, h)
			mpiTime = m
		}
		series[len(ls)].Y = append(series[len(ls)].Y, mpiTime)
	}
	f.Series = series
	f.Notes = append(f.Notes,
		"l = m (here 3) tracks the MPI baseline: the distribution degenerates;",
		"larger l separates the curves as areas start following speeds.")
	return f, nil
}

// Fig11a reproduces Figure 11(a): MM execution times, HMPI vs MPI, over
// growing matrix size with r = l = 9.
func Fig11a() (*Figure, error) {
	const r = 9
	ns := []int{45, 90, 135, 180, 225, 270}
	f := &Figure{
		ID:     "11a",
		Title:  "MM execution time, HMPI vs MPI, r=l=9 (Figure 11a)",
		XLabel: "matrix size [elements]",
		YLabel: "time [s]",
	}
	var hs, ms []float64
	for _, n := range ns {
		h, m, err := mmPoint(r, n, []int{9})
		if err != nil {
			return nil, err
		}
		f.X = append(f.X, float64(n*r))
		hs = append(hs, h)
		ms = append(ms, m)
	}
	f.Series = []Series{{Name: "HMPI", Y: hs}, {Name: "MPI", Y: ms}}
	f.Notes = append(f.Notes,
		"Heterogeneous generalised-block distribution vs homogeneous 2D block-cyclic.",
		"Paper result: HMPI almost 3x faster.")
	return f, nil
}

// Fig11b reproduces Figure 11(b): the MM speedup of HMPI over MPI.
func Fig11b() (*Figure, error) {
	base, err := Fig11a()
	if err != nil {
		return nil, err
	}
	f := &Figure{
		ID:     "11b",
		Title:  "MM speedup of HMPI over MPI (Figure 11b)",
		XLabel: base.XLabel,
		YLabel: "speedup",
		X:      base.X,
	}
	sp := make([]float64, len(base.X))
	for i := range sp {
		sp[i] = base.Series[1].Y[i] / base.Series[0].Y[i]
	}
	f.Series = []Series{{Name: "speedup", Y: sp}}
	f.Notes = append(f.Notes, "Paper result: speedup near 3x.")
	return f, nil
}

// --- Validation and ablation tables (this reproduction's additions) -----

// TableTimeof compares HMPI_Timeof's prediction against the simulated
// execution time for both applications.
func TableTimeof() (*Figure, error) {
	f := &Figure{
		ID:     "timeof",
		Title:  "HMPI_Timeof prediction vs simulated execution (Table A)",
		XLabel: "case (1..3: EM3D 100k/200k/400k nodes; 4..6: MM 405/810/1620)",
		YLabel: "time [s]",
	}
	var pred, actual []float64
	caseNo := 0
	for _, nodes := range []int{100_000, 200_000, 400_000} {
		pr, err := em3d.Generate(em3d.Config{P: 9, TotalNodes: nodes, K: 1000, Light: true})
		if err != nil {
			return nil, err
		}
		res, err := apps.RunOn(hnoc.Paper9(), &em3d.Program{Problem: pr, Opts: em3d.RunOptions{Iters: em3dIters}}, apps.HMPI)
		if err != nil {
			return nil, err
		}
		caseNo++
		f.X = append(f.X, float64(caseNo))
		pred = append(pred, res.Predicted)
		actual = append(actual, float64(res.Time))
	}
	for _, n := range []int{45, 90, 180} {
		pr, err := matmul.Generate(matmul.Config{M: 3, R: 9, N: n})
		if err != nil {
			return nil, err
		}
		res, err := apps.RunOn(hnoc.Paper9(), &matmul.Program{Problem: pr, Ls: []int{9}}, apps.HMPI)
		if err != nil {
			return nil, err
		}
		caseNo++
		f.X = append(f.X, float64(caseNo))
		pred = append(pred, res.Predicted)
		actual = append(actual, float64(res.Time))
	}
	f.Series = []Series{{Name: "predicted", Y: pred}, {Name: "simulated", Y: actual}}
	f.Notes = append(f.Notes,
		"Predictions land within roughly 1.1-1.8x of the simulated times and",
		"preserve ordering. The MM scheme orders the three phases of each step",
		"sequentially (barrier-style) and batches transfers per processor pair,",
		"while the implementation overlaps phases across processors and sends",
		"r x r blocks individually, so the prediction errs conservative.")
	return f, nil
}

// TableMapper compares the group-selection strategies on one EM3D
// instance: predicted time of the chosen group and objective evaluations
// spent (Table B).
func TableMapper() (*Figure, error) {
	return mapperTable()
}

// TableNICAblation quantifies the network model's interface serialisation:
// HMPI_Timeof for the MM configuration with the switched-Ethernet model
// (one transfer at a time per sender) and with an idealised
// infinitely-parallel sender.
func TableNICAblation() (*Figure, error) {
	return nicTable()
}

// TableEstimatorAblation compares group selection driven by the DAG
// estimator against the naive sum-of-volumes estimator: the quality of the
// chosen groups, both scored by the full estimator.
func TableEstimatorAblation() (*Figure, error) {
	return estimatorTable()
}

// --- rendering -----------------------------------------------------------

// Render prints the figure as an aligned text table.
func Render(f *Figure, w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s\n", f.Title); err != nil {
		return err
	}
	header := []string{f.XLabel}
	for _, s := range f.Series {
		header = append(header, s.Name+" ["+f.YLabel+"]")
	}
	widths := make([]int, len(header))
	rows := [][]string{header}
	for i, x := range f.X {
		row := []string{formatNum(x)}
		for _, s := range f.Series {
			row = append(row, formatNum(s.Y[i]))
		}
		rows = append(rows, row)
	}
	for _, row := range rows {
		for c, cell := range row {
			if len(cell) > widths[c] {
				widths[c] = len(cell)
			}
		}
	}
	for _, row := range rows {
		cells := make([]string, len(row))
		for c, cell := range row {
			cells[c] = fmt.Sprintf("%*s", widths[c], cell)
		}
		if _, err := fmt.Fprintln(w, strings.Join(cells, "  ")); err != nil {
			return err
		}
	}
	for _, n := range f.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	return nil
}

// CSV prints the figure as comma-separated values.
func CSV(f *Figure, w io.Writer) error {
	cols := []string{f.XLabel}
	for _, s := range f.Series {
		cols = append(cols, s.Name)
	}
	if _, err := fmt.Fprintln(w, strings.Join(cols, ",")); err != nil {
		return err
	}
	for i, x := range f.X {
		row := []string{formatNum(x)}
		for _, s := range f.Series {
			row = append(row, formatNum(s.Y[i]))
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

func formatNum(v float64) string {
	if v == float64(int64(v)) && v < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.4g", v)
}
