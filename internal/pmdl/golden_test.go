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
	"strings"
	"sync"
	"testing"

	"repro/internal/goldencases"
	"repro/internal/jobspec"
	"repro/internal/pmdl"
	"repro/internal/sched"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/instances.golden, testdata/evalerrors.golden and testdata/lint.golden")

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

// dagDigest hashes a task graph: kind, endpoints, volume bits and
// dependencies of every task, in order.
func dagDigest(d *sched.DAG) string {
	h := sha256.New()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	u64(uint64(d.Size()))
	for i := range d.Size() {
		t := d.Task(i)
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
func renderInstance(b *strings.Builder, c goldencases.Case) {
	fmt.Fprintf(b, "== %s\n", c.Name)
	var inst *pmdl.Instance
	var err error
	if c.Args == nil {
		inst, err = c.Model.AutoInstantiate()
	} else {
		inst, err = c.Model.Instantiate(c.Args...)
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
	cases, err := goldencases.Cases("../../models", "testdata/lint")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
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

// TestLintGolden pins every lint finding on every model in the tree — the
// shipped models, then the lint fixtures — one line each as pmc -lint
// prints it, path relative to the repository root.
func TestLintGolden(t *testing.T) {
	const root = "../.."
	var b strings.Builder
	for _, pat := range []string{"models/*.mpc", "internal/pmdl/testdata/lint/*.mpc"} {
		files, err := filepath.Glob(filepath.Join(root, pat))
		if err != nil || len(files) == 0 {
			t.Fatalf("no models under %s (%v)", pat, err)
		}
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			m, err := pmdl.ParseModel(string(src))
			if err != nil {
				t.Fatalf("%s: %v", f, err)
			}
			rel, _ := filepath.Rel(root, f)
			for _, d := range pmdl.Lint(m) {
				fmt.Fprintf(&b, "%s:%s\n", filepath.ToSlash(rel), d)
			}
		}
	}
	checkGolden(t, "lint.golden", []byte(b.String()))
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
	cases, err := goldencases.Matmul(90, 9, 3, jobspec.CandidateBlockSizes(3, 90))
	if err != nil {
		b.Fatal(err)
	}
	for _, stage := range []string{"instantiate", "builddag"} {
		b.Run(stage, func(b *testing.B) {
			insts := make([]*pmdl.Instance, len(cases))
			for i, c := range cases {
				var err error
				if insts[i], err = c.Model.Instantiate(c.Args...); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				for i, c := range cases {
					var err error
					if stage == "instantiate" {
						_, err = c.Model.Instantiate(c.Args...)
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

// TestBuildDAGAllocations: the task graph is a few flat arrays and the
// builder carves its dependency frontiers from an arena, so building the
// graph of every paper matmul instance allocates fewer objects than the
// graph has tasks.
func TestBuildDAGAllocations(t *testing.T) {
	cases, err := goldencases.Matmul(90, 9, 3, jobspec.CandidateBlockSizes(3, 90))
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cases {
		inst, err := c.Model.Instantiate(c.Args...)
		if err != nil {
			t.Fatal(err)
		}
		dag, err := inst.BuildDAG()
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(3, func() {
			if _, err := inst.BuildDAG(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs >= float64(dag.Size()) {
			t.Errorf("block size %d of %d: BuildDAG allocates %v objects for %d tasks", i+1, len(cases), allocs, dag.Size())
		}
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
	cases, err := goldencases.Matmul(90, 9, 3, []int{9})
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, goldencases.Case{Name: "writer", Model: writer, Args: []any{3, []int{10, 20, 30}}})
	for _, c := range cases {
		inst, err := c.Model.Instantiate(c.Args...)
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
						t.Errorf("%s: concurrent evaluation gave %s (%v), a lone one %s", c.Name, got, err, want)
						return
					}
				}
			}()
		}
		wg.Wait()
	}
}
