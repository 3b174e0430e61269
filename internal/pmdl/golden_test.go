package pmdl_test

// Golden pins of what the rest of the tree prices with: for a fixed list of
// model instances, everything Instantiate computes, a digest of the task
// graph BuildDAG emits and the trace UnrollScheme emits; and for a fixed
// table of bad models and bad arguments, the exact error. Both files were
// written by the tree-walking interpreter this package started with; an
// evaluator change that moves either has changed a price or a diagnostic.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/apps"
	"repro/internal/apps/em3d"
	"repro/internal/apps/jacobi"
	"repro/internal/apps/matmul"
	"repro/internal/hnoc"
	"repro/internal/jobspec"
	"repro/internal/pmdl"
	"repro/internal/sched"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/instances.golden and testdata/evalerrors.golden")

// checkGolden compares got with the named file under testdata, or rewrites
// the file under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("%s line %d:\n got %.200s\nwant %.200s", path, i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("%s: got %d lines, want %d", path, len(gl), len(wl))
}

// goldenCase is one model bound to one argument list (nil: AutoInstantiate).
type goldenCase struct {
	name  string
	model *pmdl.Model
	args  []any
}

// appCases returns one case per plan the program prices under the
// cluster's nominal speeds — what a job's HMPI_Timeof calls instantiate.
func appCases(t *testing.T, name string, prog apps.Program, cluster *hnoc.Cluster) []goldenCase {
	t.Helper()
	plans, err := prog.Plans(cluster.Speeds())
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var out []goldenCase
	for i, plan := range plans {
		n := name
		if len(plans) > 1 {
			n = fmt.Sprintf("%s/plan%d", name, i)
		}
		out = append(out, goldenCase{n, prog.Model(), plan.ModelArgs()})
	}
	return out
}

func em3dProgram(t *testing.T, nodes, p int) apps.Program {
	t.Helper()
	pr, err := em3d.Generate(em3d.Config{P: p, TotalNodes: nodes, Light: true})
	if err != nil {
		t.Fatal(err)
	}
	return &em3d.Program{Problem: pr, Opts: em3d.RunOptions{Iters: 2}}
}

func jacobiProgram(t *testing.T, grid, p int) apps.Program {
	t.Helper()
	pr, err := jacobi.Generate(jacobi.Config{Rows: grid, Cols: grid, Iters: 2, P: p})
	if err != nil {
		t.Fatal(err)
	}
	return &jacobi.Program{Problem: pr}
}

func matmulProgram(t *testing.T, n, r, m int, ls []int) apps.Program {
	t.Helper()
	pr, err := matmul.Generate(matmul.Config{M: m, R: r, N: n})
	if err != nil {
		t.Fatal(err)
	}
	return &matmul.Program{Problem: pr, Ls: ls}
}

// goldenCases lists the instances: the three shipped models at the paper's
// sizes (matmul once per candidate block size of the L=0 search), the 32
// small job shapes of the benchmark's select-cold and svc-repeat workloads
// (bench/gen.go's jobSpecs with the seed's jitter at zero), and every .mpc
// in the tree auto-instantiated.
func goldenCases(t *testing.T) []goldenCase {
	t.Helper()
	paper9 := hnoc.Paper9()
	var cases []goldenCase
	cases = append(cases, appCases(t, "paper/em3d", em3dProgram(t, 400_000, 9), paper9)...)
	cases = append(cases, appCases(t, "paper/matmul", matmulProgram(t, 90, 9, 3, jobspec.CandidateBlockSizes(3, 90)), paper9)...)
	cases = append(cases, appCases(t, "paper/jacobi", jacobiProgram(t, 1800, 9), paper9)...)

	for k := 0; k < 8; k++ {
		cases = append(cases, appCases(t, fmt.Sprintf("small/em3d%d", k), em3dProgram(t, 6_000+1_000*k, 6), paper9)...)
	}
	for k := 0; k < 8; k++ {
		cases = append(cases, appCases(t, fmt.Sprintf("small/jacobi%d", k), jacobiProgram(t, 100+16*k, 6), paper9)...)
	}
	for k := 0; k < 8; k++ {
		cases = append(cases, appCases(t, fmt.Sprintf("small/matmul%d", k), matmulProgram(t, 12+3*(k%4), 6+k/4, 3, []int{3}), paper9)...)
	}
	wide := &hnoc.Cluster{Remote: hnoc.Ethernet100(), Local: hnoc.SharedMemory()}
	for i, s := range []float64{46, 176, 106, 9, 46, 60, 88, 30, 46, 120, 75, 20, 46, 150, 95, 12} {
		wide.Machines = append(wide.Machines, hnoc.Machine{Name: fmt.Sprintf("wide%02d", i), Speed: s})
	}
	for k := 0; k < 8; k++ {
		p := 14 + 2*(k%2)
		if k < 4 {
			cases = append(cases, appCases(t, fmt.Sprintf("small/wide-em3d%d", k), em3dProgram(t, 16_000+4_000*k, p), wide)...)
		} else {
			cases = append(cases, appCases(t, fmt.Sprintf("small/wide-jacobi%d", k), jacobiProgram(t, 240+40*(k-4), p), wide)...)
		}
	}

	var files []string
	for _, pat := range []string{"../../models/*.mpc", "testdata/lint/*.mpc"} {
		m, err := filepath.Glob(pat)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, m...)
	}
	sort.Strings(files)
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		m, err := pmdl.ParseModel(string(src))
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		cases = append(cases, goldenCase{"auto/" + filepath.Base(f), m, nil})
	}
	return cases
}

// dagDigest hashes a task graph: kind, endpoints, volume bits and
// dependencies of every task, in order.
func dagDigest(d *sched.DAG) string {
	h := sha256.New()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	u64(uint64(len(d.Tasks)))
	for _, t := range d.Tasks {
		u64(uint64(t.Kind))
		if t.Kind == sched.KindCompute {
			u64(uint64(t.Proc))
			u64(math.Float64bits(t.Units))
		} else {
			u64(uint64(t.Src))
			u64(uint64(t.Dst))
			u64(math.Float64bits(t.Bytes))
		}
		u64(uint64(len(t.Deps)))
		for _, dep := range t.Deps {
			u64(uint64(dep))
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// writeTrace renders a series-parallel trace: c<proc> and t<src>><dst>
// leaves with their source position, seq(...) and par(...) compositions.
func writeTrace(b *strings.Builder, n *pmdl.TraceNode) {
	if n.Op != nil {
		if n.Op.Comm() {
			fmt.Fprintf(b, "t%d>%d@%d:%d", n.Op.Src, n.Op.Dst, n.Op.Pos.Line, n.Op.Pos.Col)
		} else {
			fmt.Fprintf(b, "c%d@%d:%d", n.Op.Src, n.Op.Pos.Line, n.Op.Pos.Col)
		}
		return
	}
	if n.Par {
		b.WriteString("par(")
	} else {
		b.WriteString("seq(")
	}
	for i, k := range n.Kids {
		if i > 0 {
			b.WriteByte(' ')
		}
		writeTrace(b, k)
	}
	b.WriteByte(')')
}

func bitsOf(xs []float64) string {
	var b strings.Builder
	for i, x := range xs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%x", math.Float64bits(x))
	}
	return b.String()
}

// renderInstance is one golden entry: every stage's outcome, errors
// included (an auto-instantiation that fails is pinned as its message).
func renderInstance(b *strings.Builder, c goldenCase) {
	fmt.Fprintf(b, "== %s\n", c.name)
	var inst *pmdl.Instance
	var err error
	if c.args == nil {
		inst, err = c.model.AutoInstantiate()
	} else {
		inst, err = c.model.Instantiate(c.args...)
	}
	if err != nil {
		fmt.Fprintf(b, "instantiate: %v\n", err)
		return
	}
	fmt.Fprintf(b, "dims %v procs %d parent %d\n", inst.Dims, inst.NumProcs, inst.Parent)
	fmt.Fprintf(b, "comp %s\n", bitsOf(inst.CompVolume))
	for i, row := range inst.CommVolume {
		fmt.Fprintf(b, "comm[%d] %s\n", i, bitsOf(row))
	}
	if dag, err := inst.BuildDAG(); err != nil {
		fmt.Fprintf(b, "dag: %v\n", err)
	} else {
		fmt.Fprintf(b, "dag %d tasks sha256 %s\n", dag.Size(), dagDigest(dag))
	}
	if tr, err := inst.UnrollScheme(); err != nil {
		fmt.Fprintf(b, "trace: %v\n", err)
	} else {
		b.WriteString("trace ")
		writeTrace(b, tr)
		b.WriteByte('\n')
	}
}

func TestInstancesGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range goldenCases(t) {
		renderInstance(&b, c)
	}
	checkGolden(t, "instances.golden", []byte(b.String()))
}

// evalErrorCases is the error table: name, model source, arguments. A case
// is pinned at whichever stage rejects it — ParseModel, Instantiate,
// BuildDAG or UnrollScheme — with the exact text, position included.
var evalErrorCases = []struct {
	name string
	src  string
	args []any
}{
	{"div by zero", nodeModel("a/(b-3)"), []any{1, 7, 3}},
	{"mod by zero", nodeModel("a%(b-3)"), []any{1, 7, 3}},
	{"real div by zero", nodeModel("a/(b-3.0)"), []any{1, 7, 3}},
	{"mod of double", nodeModel("2.5%a"), []any{1, 7, 3}},
	{"percent div by zero", schemeModel("", "(100/(p-1))%%[0];"), []any{1}},
	{"negative percentage", schemeModel("", "(0-5)%%[0];"), []any{1}},
	{"negative node volume", nodeModel("0-5"), []any{1, 7, 3}},
	{"negative link volume", `algorithm E(int p) { coord I=p; link (L=p) { I!=L : length*(0-8) [L]->[I]; }; parent[0]; scheme { }; }`, []any{2}},
	{"conflicting link volumes", `algorithm E(int p) { coord I=p;
  link (L=p) {
    I==0 && L==1 : length*(100) [L]->[I];
    I==0 && L==1 : length*(200) [L]->[I];
  }; parent[0]; scheme { }; }`, []any{2}},
	{"index out of range", `algorithm E(int p, int d[p]) { coord I=p; node {I>=0: bench*(d[I+5]);}; parent[0]; scheme { }; }`, []any{2, []int{1, 2}}},
	{"negative index", `algorithm E(int p, int d[p]) { coord I=p; node {I>=0: bench*(d[I-1]);}; parent[0]; scheme { }; }`, []any{2, []int{1, 2}}},
	{"inner index out of range", `algorithm E(int p, int d[p][p]) { coord I=p; node {I>=0: bench*(d[I][p]);}; parent[0]; scheme { }; }`, []any{2, [][]int{{1, 2}, {3, 4}}}},
	{"index in scheme", `algorithm E(int p, int d[p]) { coord I=p; parent[0]; scheme { int i; for (i = 0; i <= p; i++) (d[i])%%[0]; }; }`, []any{2, []int{1, 2}}},
	{"subscripting a scalar", schemeModel("typedef struct {int I; int J;} P;", "P q; q.I[0] = 1;"), []any{1}},
	{"subscripting a scalar statically", schemeModel("", "int i; i[0] = 1;"), []any{1}},
	{"too many subscripts", `algorithm E(int p, int d[p]) { coord I=p; node {I>=0: bench*(d[0][0]);}; parent[0]; scheme { }; }`, []any{2, []int{1, 2}}},
	{"member of struct-typed int", `typedef struct {int I; int J;} P;
algorithm E(int p, P q) { coord I=p; node {I>=0: bench*(q.I);}; parent[0]; scheme { }; }`, []any{1, 3}},
	{"array in arithmetic", `algorithm E(int p, int d[p]) { coord I=p; node {I>=0: bench*(d+1);}; parent[0]; scheme { }; }`, []any{2, []int{1, 2}}},
	{"array as guard", `algorithm E(int p, int d[p]) { coord I=p; node {d: bench*(1);}; parent[0]; scheme { }; }`, []any{2, []int{1, 2}}},
	{"negated array", `algorithm E(int p, int d[p]) { coord I=p; node {I>=0: bench*(-d);}; parent[0]; scheme { }; }`, []any{2, []int{1, 2}}},
	{"struct in arithmetic", schemeModel("typedef struct {int I; int J;} P;", "P q; int i; i = q + 1;"), []any{1}},
	{"struct to int", schemeModel("typedef struct {int I; int J;} P;", "P q; int i; i = q;"), []any{1}},
	{"int to struct", schemeModel("typedef struct {int I; int J;} P;", "P q; q = 3;"), []any{1}},
	{"struct to other struct", schemeModel("typedef struct {int I;} P; typedef struct {int I;} Q;", "P a; Q b; a = b;"), []any{1}},
	{"array to int", `algorithm E(int p, int d[p]) { coord I=p; parent[0]; scheme { int i; i = d; }; }`, []any{2, []int{1, 2}}},
	{"ref to int", schemeModel("", "int i, j; i = &j;"), []any{1}},
	{"unknown host function", schemeModel("", "Frobnicate(1);"), []any{1}},
	{"unknown host function in node", nodeModel("Frobnicate(a)"), []any{1, 7, 3}},
	{"amp of non-lvalue", schemeModel("", "int i; F(&(i+1));"), []any{1}},
	{"assign to literal", schemeModel("", "5 = 3;"), []any{1}},
	{"incdec of literal", schemeModel("", "5++;"), []any{1}},
	{"undefined name", schemeModel("", "zork = 1;"), []any{1}},
	{"redeclaration", schemeModel("", "int i; int i;"), []any{1}},
	{"endless for", schemeModel("", "for(;;) 100%%[0];"), []any{1}},
	{"non-positive coordinate range", `algorithm E(int p) { coord I=p-2; parent[0]; scheme { }; }`, []any{2}},
	{"non-positive link range", `algorithm E(int p) { coord I=p; link (L=p-2) { I!=L : length*(8) [L]->[I]; }; parent[0]; scheme { }; }`, []any{2}},
	{"non-positive dimension", `algorithm E(int p, int d[p-2]) { coord I=p; parent[0]; scheme { }; }`, []any{2, []int{1}}},
	{"array as dimension", `algorithm E(int p, int d[p], int e[d]) { coord I=p; parent[0]; scheme { }; }`, []any{2, []int{1, 2}, []int{1}}},
	{"action coordinate out of range", schemeModel("", "100%%[99];"), []any{2}},
	{"action coordinate negative", schemeModel("", "100%%[0-1];"), []any{2}},
	{"transfer destination out of range", schemeModel("", "100%%[0]->[p];"), []any{2}},
	{"link coordinate out of range", `algorithm E(int p) { coord I=p; link (L=p) { I!=L : length*(8) [L+p]->[I]; }; parent[0]; scheme { }; }`, []any{2}},
	{"parent out of range", `algorithm E(int p) { coord I=p; parent[p]; scheme { }; }`, []any{2}},
	{"action arity", schemeModel("", "100%%[0,0];"), []any{2}},
	{"too few arguments", argModel, []any{2}},
	{"too many arguments", argModel, []any{2, []int{1, 2}, 1.0, 9}},
	{"wrong extent", argModel, []any{2, []int{1, 2, 3}, 1.0}},
	{"wrong rank", argModel, []any{2, [][]int{{1}, {2}}, 1.0}},
	{"float for int", argModel, []any{2.5, []int{1, 2}, 1.0}},
	{"scalar for array", argModel, []any{2, 7, 1.0}},
	{"array for scalar", argModel, []any{[]int{2}, []int{1, 2}, 1.0}},
	{"unsupported scalar", argModel, []any{"2", []int{1, 2}, 1.0}},
	{"ragged slice", `algorithm E(int p, int d[p][p]) { coord I=p; parent[0]; scheme { }; }`, []any{2, [][]int{{1, 2}, {3}}}},
	{"empty slice", `algorithm E(int p, int d[p][p]) { coord I=p; parent[0]; scheme { }; }`, []any{2, [][]int{}}},
	{"GetProcessor arity", schemeModel("", "GetProcessor(1);"), []any{1}},
	{"GetProcessor shapes", `typedef struct {int I; int J;} P;
algorithm E(int p, int w[p]) { coord I=p; parent[0]; scheme { P q; GetProcessor(0, 0, p, w, w, &q); }; }`, []any{1, []int{1}}},
	{"GetProcessor output", `algorithm E(int m, int w[m], int h[m][m][m][m]) { coord I=m; parent[0]; scheme { int q; GetProcessor(0, 0, m, h, w, &q); }; }`, []any{1, []int{1}, [][][][]int{{{{1}}}}}},
	{"GetProcessor column", `typedef struct {int I; int J;} P;
algorithm E(int m, int w[m], int h[m][m][m][m]) { coord I=m; parent[0]; scheme { P q; GetProcessor(0, 5, m, h, w, &q); }; }`, []any{1, []int{1}, [][][][]int{{{{1}}}}}},
	{"GetProcessor row", `typedef struct {int I; int J;} P;
algorithm E(int m, int w[m], int h[m][m][m][m]) { coord I=m; parent[0]; scheme { P q; GetProcessor(5, 0, m, h, w, &q); }; }`, []any{1, []int{1}, [][][][]int{{{{1}}}}}},
}

const argModel = `algorithm E(int p, int d[p], double f) { coord I=p; parent[0]; scheme { }; }`

// nodeModel is a one-coordinate model whose node volume is expr over the
// int parameters a and b.
func nodeModel(expr string) string {
	return "algorithm E(int p, int a, int b) {\n  coord I=p;\n  node {I>=0: bench*(" + expr + ");};\n  parent[0];\n  scheme { };\n}"
}

// schemeModel is a one-coordinate model of p processors with the given
// typedefs and scheme body.
func schemeModel(typedefs, body string) string {
	return typedefs + "\nalgorithm E(int p) {\n  coord I=p;\n  node {I>=0: bench*(100);};\n  parent[0];\n  scheme {\n    " + body + "\n  };\n}"
}

// firstError runs a case through every stage and names the first that
// fails.
func firstError(src string, args []any) string {
	m, err := pmdl.ParseModel(src)
	if err != nil {
		return "parse: " + err.Error()
	}
	inst, err := m.Instantiate(args...)
	if err != nil {
		return "instantiate: " + err.Error()
	}
	if _, err := inst.BuildDAG(); err != nil {
		if _, uerr := inst.UnrollScheme(); uerr == nil || uerr.Error() != err.Error() {
			return fmt.Sprintf("dag: %v (but unroll: %v)", err, uerr)
		}
		return "scheme: " + err.Error()
	}
	return "accepted"
}

func TestEvalErrorsGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range evalErrorCases {
		fmt.Fprintf(&b, "%s: %s\n", c.name, firstError(c.src, c.args))
	}
	checkGolden(t, "evalerrors.golden", []byte(b.String()))
}

// TestLoopLimitError is the one row of the error table that takes ten
// million iterations to reach, so it stays out of -short (and -race) runs.
func TestLoopLimitError(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a scheme loop to maxLoopIterations")
	}
	const want = "scheme: pmdl: 7:12: loop exceeded 10000000 iterations (model bug?)"
	if got := firstError(schemeModel("", "int i; for (i = 0; i >= 0; ) i = 0;"), []any{1}); got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
}

// BenchmarkPaperMatmulSweep is the L=0 HMPI_Timeof sweep's model work: one
// op instantiates the matmul model at each of the six candidate block sizes
// of the paper's problem and builds each task graph.
func BenchmarkPaperMatmulSweep(b *testing.B) {
	var t testing.T
	cases := appCases(&t, "paper/matmul", matmulProgram(&t, 90, 9, 3, jobspec.CandidateBlockSizes(3, 90)), hnoc.Paper9())
	for _, stage := range []string{"instantiate", "builddag"} {
		b.Run(stage, func(b *testing.B) {
			insts := make([]*pmdl.Instance, len(cases))
			for i, c := range cases {
				var err error
				if insts[i], err = c.model.Instantiate(c.args...); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				for i, c := range cases {
					var err error
					if stage == "instantiate" {
						_, err = c.model.Instantiate(c.args...)
					} else {
						_, err = insts[i].BuildDAG()
					}
					if err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

// TestInstanceBuildDAGConcurrent: an Instance is read-only after
// Instantiate. Eight goroutines build the task graph and unroll the scheme
// of one instance at once and must all see what a lone caller sees; run
// under -race, any write to the instance shows. The second instance's scheme
// stores into an array parameter, which every evaluation must do on its own
// copy.
func TestInstanceBuildDAGConcurrent(t *testing.T) {
	writer, err := pmdl.ParseModel(`algorithm W(int p, int d[p]) { coord I=p; node {I>=0: bench*(10);}; parent[0];
  scheme { int i; for (i = 0; i < p; i++) { d[i] += 50; (d[i])%%[i]; } }; }`)
	if err != nil {
		t.Fatal(err)
	}
	cases := appCases(t, "matmul", matmulProgram(t, 90, 9, 3, []int{9}), hnoc.Paper9())
	cases = append(cases, goldenCase{"writer", writer, []any{3, []int{10, 20, 30}}})
	for _, c := range cases {
		inst, err := c.model.Instantiate(c.args...)
		if err != nil {
			t.Fatal(err)
		}
		digest := func() (string, error) {
			dag, err := inst.BuildDAG()
			if err != nil {
				return "", err
			}
			tr, err := inst.UnrollScheme()
			if err != nil {
				return "", err
			}
			var b strings.Builder
			writeTrace(&b, tr)
			return dagDigest(dag) + fmt.Sprintf(" %x", sha256.Sum256([]byte(b.String()))), nil
		}
		want, err := digest()
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 4; i++ {
					if got, err := digest(); err != nil || got != want {
						t.Errorf("%s: concurrent evaluation gave %s (%v), a lone one %s", c.name, got, err, want)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}
