package experiments

import (
	"math"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	reg := Registry()
	for _, id := range []string{"9a", "9b", "10", "11a", "11b", "timeof", "mapper", "nic", "estimator", "search", "coll", "hier", "overlap"} {
		if reg[id] == nil {
			t.Errorf("figure %q missing from registry", id)
		}
	}
	ids := IDs()
	if len(ids) != len(reg) {
		t.Fatalf("IDs() returned %d entries for %d generators", len(ids), len(reg))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatalf("IDs() not sorted: %v", ids)
		}
	}
}

func sampleFigure() *Figure {
	return &Figure{
		ID: "t", Title: "Test figure", XLabel: "x", YLabel: "s",
		X: []float64{1, 2.5},
		Series: []Series{
			{Name: "a", Y: []float64{10, 0.125}},
			{Name: "b", Y: []float64{20, 40}},
		},
		Notes: []string{"a note"},
	}
}

func TestRenderTable(t *testing.T) {
	var sb strings.Builder
	if err := Render(sampleFigure(), &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"# Test figure", "a [s]", "b [s]", "2.5", "0.125", "40", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestCSV(t *testing.T) {
	var sb strings.Builder
	if err := CSV(sampleFigure(), &sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV has %d lines: %q", len(lines), sb.String())
	}
	if lines[0] != "x,a,b" {
		t.Errorf("header = %q", lines[0])
	}
	if lines[1] != "1,10,20" {
		t.Errorf("row 1 = %q", lines[1])
	}
}

func TestMapperTableShowsGreedyGap(t *testing.T) {
	f, err := TableMapper()
	if err != nil {
		t.Fatal(err)
	}
	pred := f.Series[0].Y
	evals := f.Series[1].Y
	exhaustive, greedy, local := pred[0], pred[1], pred[2]
	// On the hostile network, plain greedy must be strictly worse than
	// the optimum, and greedy+local must recover it.
	if greedy <= exhaustive*1.01 {
		t.Errorf("greedy (%v) not worse than exhaustive (%v); table is vacuous", greedy, exhaustive)
	}
	if local > exhaustive*1.05 {
		t.Errorf("greedy+local (%v) far from exhaustive optimum (%v)", local, exhaustive)
	}
	if evals[2] >= evals[0] {
		t.Errorf("local search used %v evaluations, exhaustive %v", evals[2], evals[0])
	}
}

func TestNICTableSerialisationCosts(t *testing.T) {
	f, err := TableNICAblation()
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.X {
		serial, ideal := f.Series[0].Y[i], f.Series[1].Y[i]
		if serial < ideal {
			t.Errorf("serialised prediction %v below ideal %v at x=%v", serial, ideal, f.X[i])
		}
	}
}

func TestEstimatorTableDAGNoWorse(t *testing.T) {
	f, err := TableEstimatorAblation()
	if err != nil {
		t.Fatal(err)
	}
	for i := range f.X {
		dag, naive := f.Series[0].Y[i], f.Series[1].Y[i]
		if dag > naive*1.0001 {
			t.Errorf("DAG-driven selection (%v) worse than naive-driven (%v) at x=%v", dag, naive, f.X[i])
		}
	}
}

// TestFig9bSpeedupBand runs the smallest Figure 9 point and checks the
// headline claim: HMPI beats MPI by a factor in the paper's band.
func TestFig9bSpeedupBand(t *testing.T) {
	h, m, err := em3dPoint(100_000)
	if err != nil {
		t.Fatal(err)
	}
	speedup := m / h
	if speedup < 1.2 || speedup > 1.9 {
		t.Errorf("EM3D speedup %.2f outside the expected band [1.2, 1.9]", speedup)
	}
}

// TestFig11bSpeedupBand runs one Figure 11 point and checks the ~3x claim.
func TestFig11bSpeedupBand(t *testing.T) {
	h, m, err := mmPoint(9, 90, []int{9})
	if err != nil {
		t.Fatal(err)
	}
	speedup := m / h
	if speedup < 2.2 || speedup > 3.8 {
		t.Errorf("MM speedup %.2f outside the expected band [2.2, 3.8]", speedup)
	}
}

func TestHeterogeneityTable(t *testing.T) {
	f, err := TableHeterogeneity()
	if err != nil {
		t.Fatal(err)
	}
	sp := f.Series[0].Y
	// Homogeneous cluster: HMPI must not beat (or lose to) MPI by more
	// than noise.
	if sp[0] < 0.98 || sp[0] > 1.02 {
		t.Errorf("homogeneous speedup %v, want ~1", sp[0])
	}
	// Moderate heterogeneity: a clear win.
	foundWin := false
	for _, v := range sp[1:] {
		if v > 1.2 {
			foundWin = true
		}
		if v < 0.98 {
			t.Errorf("HMPI lost on a heterogeneous cluster: speedup %v", v)
		}
	}
	if !foundWin {
		t.Errorf("no heterogeneity level shows a >1.2x win: %v", sp)
	}
}

func TestSpreadClusterInvariants(t *testing.T) {
	for _, ratio := range []float64{1, 3, 10} {
		c, err := spreadCluster(9, 46, ratio)
		if err != nil {
			t.Fatal(err)
		}
		var sum, minS, maxS float64
		minS = c.Machines[0].Speed
		for _, m := range c.Machines {
			sum += m.Speed
			if m.Speed < minS {
				minS = m.Speed
			}
			if m.Speed > maxS {
				maxS = m.Speed
			}
		}
		if got := sum / 9; got < 45.99 || got > 46.01 {
			t.Errorf("ratio %v: mean speed %v, want 46", ratio, got)
		}
		if got := maxS / minS; got < ratio*0.999 || got > ratio*1.001 {
			t.Errorf("ratio %v: actual spread %v", ratio, got)
		}
	}
	if _, err := spreadCluster(9, 46, 0.5); err == nil {
		t.Error("ratio < 1 accepted")
	}
}

// TestDegradationTable checks the fault-injection experiment: zero
// recovery overhead without failures, and for every k > 0 a completed run
// whose makespan exceeds the failure-free one by a positive recovery cost.
func TestDegradationTable(t *testing.T) {
	f, err := TableDegradation()
	if err != nil {
		t.Fatal(err)
	}
	emT, emR := f.Series[0].Y, f.Series[1].Y
	mmT, mmR := f.Series[2].Y, f.Series[3].Y
	if emR[0] != 0 || mmR[0] != 0 {
		t.Fatalf("failure-free recovery overhead nonzero: em3d %v, mm %v", emR[0], mmR[0])
	}
	for k := 1; k < len(f.X); k++ {
		if emR[k] <= 0 {
			t.Errorf("em3d k=%d: recovery overhead %v, want > 0", k, emR[k])
		}
		if emT[k] <= emT[0] {
			t.Errorf("em3d k=%d: makespan %v not above failure-free %v", k, emT[k], emT[0])
		}
		if mmR[k] <= 0 {
			t.Errorf("mm k=%d: recovery overhead %v, want > 0", k, mmR[k])
		}
		if mmT[k] <= mmT[0] {
			t.Errorf("mm k=%d: makespan %v not above failure-free %v", k, mmT[k], mmT[0])
		}
	}
}

// TestFigureDeterminism: the whole pipeline is deterministic, so
// regenerating a figure yields bit-identical numbers.
func TestFigureDeterminism(t *testing.T) {
	for _, fig := range []struct {
		id   string
		skip int // index of a point left out, or -1
	}{
		{"mapper", -1},
		{"search", -1},
		// The overlap figure's third case is left out: with two matmul
		// pipeline steps in flight the overlapped schedule's simulated
		// time depends on how the host schedules the progress engine (13
		// distinct values in 30 runs, before and after PR 14; CHANGES.md).
		{"overlap", 2},
	} {
		gen := Registry()[fig.id]
		a, err := gen()
		if err != nil {
			t.Fatal(err)
		}
		b, err := gen()
		if err != nil {
			t.Fatal(err)
		}
		for s := range a.Series {
			for i := range a.Series[s].Y {
				if i != fig.skip && a.Series[s].Y[i] != b.Series[s].Y[i] {
					t.Fatalf("figure %s series %d point %d differs: %v vs %v",
						fig.id, s, i, a.Series[s].Y[i], b.Series[s].Y[i])
				}
			}
		}
	}
}

// TestSearchTableDeterminismContract: every engine configuration of the
// search figure returns the serial scan's prediction bit for bit, the orbit
// walk scores under 1% of the serial scan's candidates and accounts for the
// rest as leaves a symmetric candidate stood for, and Table E's sixteen
// values are pinned exactly.
func TestSearchTableDeterminismContract(t *testing.T) {
	f, err := TableSearch()
	if err != nil {
		t.Fatal(err)
	}
	pred, evals, hits := f.Series[0].Y, f.Series[1].Y, f.Series[2].Y
	for i := range pred {
		if pred[i] != pred[0] {
			t.Errorf("config %d predicts %v, serial %v", i+1, pred[i], pred[0])
		}
	}
	// Config 3 is the serial scan plus the orbit walk alone.
	if evals[2]+hits[2] != evals[0] {
		t.Errorf("symmetry config accounted for %v candidates, serial %v", evals[2]+hits[2], evals[0])
	}
	if evals[2] > evals[0]/100 {
		t.Errorf("symmetry config evaluated %v of serial's %v candidates, want under 1%%", evals[2], evals[0])
	}
	// Rows: configs 1-4; columns: predicted, evaluations, cache hits,
	// pruned.
	p := math.Float64frombits(0x3fc7f6e3a87f542d) // 0.18722196319018405
	want := [4][4]float64{
		{p, 40320, 0, 0},
		{p, 40320, 0, 0},
		{p, 336, 39984, 0},
		{p, 336, 39984, 0},
	}
	for i, row := range want {
		for j, v := range row {
			if got := f.Series[j].Y[i]; got != v {
				t.Errorf("config %d %s = %v, want %v", i+1, f.Series[j].Name, got, v)
			}
		}
	}
}
