package jobspec

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"testing"

	"repro/internal/hnoc"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/execute.golden")

// goldenRow is one job of the golden table.
type goldenRow struct {
	name string
	spec Spec
}

// goldenRows is every app in both modes on the paper's network — matmul
// with a fixed block size and with the Timeof search — plus one row on
// the fat-node cluster. Kill-chaos jobs stay out: they are not yet
// bit-deterministic (ROADMAP).
func goldenRows() []goldenRow {
	var rows []goldenRow
	for _, mode := range []string{ModeHMPI, ModeMPI} {
		rows = append(rows,
			goldenRow{"em3d/" + mode, Spec{App: "em3d", Mode: mode, Nodes: 40_000, P: 6, Iters: 3}},
			goldenRow{"matmul-l9/" + mode, Spec{App: "matmul", Mode: mode, N: 18, R: 4, M: 3, L: 9}},
			goldenRow{"matmul-search/" + mode, Spec{App: "matmul", Mode: mode, N: 18, R: 4, M: 3, L: 0}},
			goldenRow{"jacobi/" + mode, Spec{App: "jacobi", Mode: mode, Grid: 300, P: 5, Iters: 3}},
		)
	}
	fat, _ := hnoc.FatNode3x8()
	return append(rows, goldenRow{"em3d-fatnode/hmpi", Spec{App: "em3d", Cluster: fat, Nodes: 30_000, P: 3, Iters: 2}})
}

// TestExecuteGolden pins what Execute reports for each golden row — the
// makespan, the algorithm time and the prediction as float64 bit
// patterns, the selection, block size and strip heights verbatim — to
// testdata/execute.golden, captured from the per-app drivers before the
// one-driver refactor. Any drift in a simulated clock, a selection or a
// reported field shows up as a diff.
func TestExecuteGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, row := range goldenRows() {
		res, err := Execute(row.spec, ExecOptions{})
		if err != nil {
			t.Fatalf("%s: %v", row.name, err)
		}
		fmt.Fprintf(&buf, "%s makespan=%016x time=%016x predicted=%016x selection=%v l=%d heights=%v\n",
			row.name, math.Float64bits(float64(res.Makespan)), math.Float64bits(float64(res.Time)),
			math.Float64bits(res.Predicted), res.Selection, res.L, res.Heights)
	}
	const golden = "testdata/execute.golden"
	if *updateGolden {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with go test -run ExecuteGolden -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("Execute results differ from %s:\n got:\n%swant:\n%s", golden, buf.Bytes(), want)
	}
}
