package apps_test

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"testing"

	"repro/internal/apps"
	"repro/internal/apps/em3d"
	"repro/internal/apps/jacobi"
	"repro/internal/apps/matmul"
	"repro/internal/chaos"
	"repro/internal/hmpi"
	"repro/internal/hnoc"
	"repro/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/selfheal.golden")

// selfHealChaos is the link chaos of the golden's second row per
// application: chronic 30% loss on the 1-2 link for the whole run, which
// crosses the retransmission threshold and triggers a degrade-reselect.
const selfHealChaos = "link:1-2@0+100:drop=0.3"

// selfHealRow runs prog under apps.SelfHealing on the paper's network —
// with spec armed at seed 7 and degradation enabled when spec is not empty
// — and formats everything the resilient region decides and costs: the
// clocks as float64 bits, attempts, selection, degraded pairs and the
// recorded trace's event count per kind.
func selfHealRow(t *testing.T, prog apps.Program, spec string) string {
	t.Helper()
	rt, err := hmpi.New(hmpi.Config{Cluster: hnoc.Paper9()})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Finalize()
	rec := rt.EnableRecorder(prog.Name(), trace.Options{})
	if spec != "" {
		sched, err := chaos.Parse(spec, rt.World().Size())
		if err != nil {
			t.Fatal(err)
		}
		rt.EnableDegradation()
		if err := sched.Arm(rt.World(), 7, nil); err != nil {
			t.Fatal(err)
		}
	}
	res, err := apps.Run(rt, prog, apps.SelfHealing)
	if err != nil {
		t.Fatalf("%s %q: %v", prog.Name(), spec, err)
	}
	counts := map[string]int{}
	for _, evs := range rec.Data().PerRank {
		for i := range evs {
			counts[evs[i].Kind.String()]++
		}
	}
	kinds := make([]string, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	var b bytes.Buffer
	bits := func(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }
	fmt.Fprintf(&b, "%s chaos=%q\n", prog.Name(), spec)
	fmt.Fprintf(&b, "  time=%s work=%s recovery=%s makespan=%s\n",
		bits(float64(res.Time)), bits(float64(res.WorkTime)), bits(float64(res.Recovery)), bits(float64(rt.World().Makespan())))
	fmt.Fprintf(&b, "  attempts=%d selection=%v degraded=%v\n", res.Attempts, res.Selection, rt.DegradedPairs())
	for _, k := range kinds {
		fmt.Fprintf(&b, "  %s=%d\n", k, counts[k])
	}
	return b.String()
}

// TestSelfHealingGolden pins what a resilient region decides and costs
// for each application, failure-free and under seeded link chaos with
// degradation, to testdata/selfheal.golden: the group lifecycle of
// hmpi.RunResilient moves these clocks and counts and nothing else does.
func TestSelfHealingGolden(t *testing.T) {
	emPr, err := em3d.Generate(em3d.Config{P: 6, TotalNodes: 60_000, Light: true})
	if err != nil {
		t.Fatal(err)
	}
	mmPr, err := matmul.Generate(matmul.Config{M: 2, R: 8, N: 16})
	if err != nil {
		t.Fatal(err)
	}
	jaPr, err := jacobi.Generate(jacobi.Config{Rows: 300, Cols: 300, Iters: 3, P: 5})
	if err != nil {
		t.Fatal(err)
	}
	progs := []func() apps.Program{
		func() apps.Program { return &em3d.Program{Problem: emPr, Opts: em3d.RunOptions{Iters: 3}} },
		func() apps.Program { return &matmul.Program{Problem: mmPr, Ls: []int{8}} },
		func() apps.Program { return &jacobi.Program{Problem: jaPr} },
	}
	var buf bytes.Buffer
	for _, prog := range progs {
		for _, spec := range []string{"", selfHealChaos} {
			buf.WriteString(selfHealRow(t, prog(), spec))
		}
	}
	const golden = "testdata/selfheal.golden"
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
		t.Fatalf("%v (regenerate with go test -run SelfHealingGolden -update)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("self-healing runs differ from %s:\n got:\n%swant:\n%s", golden, buf.Bytes(), want)
	}
}
