package hmpi

import (
	"fmt"
	"testing"

	"repro/internal/hnoc"
	"repro/internal/mapper"
)

// exhaustivePaper9Opts builds the exhaustive-search option sets compared
// by the tests below: the serial engine and the parallel one. Both prune
// and memoise — the runtime always hands the engine the estimator's bound
// and canonical key.
func exhaustivePaper9Opts() (plain, tuned mapper.Options) {
	plain = mapper.Options{Strategy: mapper.StrategyExhaustive}
	tuned = mapper.Options{Strategy: mapper.StrategyExhaustive, Parallelism: 4}
	return plain, tuned
}

// selectRuntime builds a Paper9 runtime whose group-selection search is
// tuned through Config.Select, the one way in.
func selectRuntime(t *testing.T, opts mapper.Options) *Runtime {
	t.Helper()
	rt, err := New(Config{Cluster: hnoc.Paper9(), Select: opts})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// TestGroupCreateSelectDeterministic: the parallel engine must select the
// exact group the serial exhaustive search selects, both must account for
// the whole permutation tree, and the parent's handle must surface the
// search statistics.
func TestGroupCreateSelectDeterministic(t *testing.T) {
	model := testModel(t)
	args := []any{4, []int{10, 300, 40, 80}, 50}
	plain, tuned := exhaustivePaper9Opts()

	runOnce := func(opts mapper.Options) ([]int, mapper.SearchStats) {
		t.Helper()
		rt := selectRuntime(t, opts)
		defer rt.Finalize()
		var ranks []int
		var stats mapper.SearchStats
		err := rt.Run(func(h *Process) error {
			var g *Group
			var err error
			if h.IsHost() || h.IsFree() {
				g, err = h.GroupCreate(model, args...)
				if err != nil {
					return err
				}
			}
			if h.IsMember(g) && h.IsHost() {
				ranks = g.WorldRanks()
				stats = g.stats
			}
			if h.IsMember(g) && !h.IsHost() && g.stats.Evaluations != 0 {
				return fmt.Errorf("member rank %d carries search stats", h.Rank())
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return ranks, stats
	}

	wantRanks, wantStats := runOnce(plain)
	gotRanks, gotStats := runOnce(tuned)
	if len(gotRanks) != len(wantRanks) {
		t.Fatalf("tuned engine selected %v, serial %v", gotRanks, wantRanks)
	}
	for i := range wantRanks {
		if gotRanks[i] != wantRanks[i] {
			t.Fatalf("tuned engine selected %v, serial %v", gotRanks, wantRanks)
		}
	}
	if wantStats.Evaluations == 0 {
		t.Fatal("serial search reported no evaluations")
	}
	total := wantStats.Evaluations + wantStats.CacheHits + wantStats.Pruned
	if sum := gotStats.Evaluations + gotStats.CacheHits + gotStats.Pruned; sum != total {
		t.Fatalf("tuned engine accounts for %d of %d assignments", sum, total)
	}
}

// TestPaper9EvaluationReduction pins the headline efficiency claim on the
// paper's own network: on the 9-workstation cluster — six of them
// identical — symmetry caching plus branch-and-bound must cut the
// objective evaluations of the exhaustive group selection at least 5x.
func TestPaper9EvaluationReduction(t *testing.T) {
	model := testModel(t)
	args := []any{4, []int{10, 300, 40, 80}, 50}
	plain, tuned := exhaustivePaper9Opts()
	tPlain, sPlain, err := PredictTimeof(Config{Cluster: hnoc.Paper9(), Select: plain}, model, args...)
	if err != nil {
		t.Fatal(err)
	}
	tTuned, sTuned, err := PredictTimeof(Config{Cluster: hnoc.Paper9(), Select: tuned}, model, args...)
	if err != nil {
		t.Fatal(err)
	}
	if tTuned != tPlain {
		t.Fatalf("tuned Timeof %v differs from serial %v", tTuned, tPlain)
	}
	if sPlain.Evaluations == 0 || sTuned.Evaluations == 0 {
		t.Fatalf("search stats missing: plain %+v, tuned %+v", sPlain, sTuned)
	}
	// Every assignment is evaluated, served from the memo or pruned;
	// the job's default search must evaluate at most a fifth of them.
	tree := sPlain.Evaluations + sPlain.CacheHits + sPlain.Pruned
	if reduction := float64(tree) / float64(sPlain.Evaluations); reduction < 5 {
		t.Fatalf("symmetry+pruning reduced evaluations only %.2fx (%d -> %d), want >= 5x",
			reduction, tree, sPlain.Evaluations)
	}
}

// TestTimeofHonoursConfigSelect: an in-run Timeof searches with the
// runtime's Config.Select — the parallel exhaustive engine here — and
// predicts exactly what the stats-reporting offline pricing predicts
// under the same configuration.
func TestTimeofHonoursConfigSelect(t *testing.T) {
	model := testModel(t)
	_, tuned := exhaustivePaper9Opts()
	rt := selectRuntime(t, tuned)
	defer rt.Finalize()
	var got float64
	err := rt.Run(func(h *Process) error {
		if !h.IsHost() {
			return nil
		}
		var err error
		got, err = h.Timeof(model, 3, []int{10, 10, 1000}, 100)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	want, stats, err := PredictTimeof(rt.cfg, model, 3, []int{10, 10, 1000}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("Timeof %v, PredictTimeof %v", got, want)
	}
	if stats.Evaluations == 0 {
		t.Fatal("no evaluations reported")
	}
	if stats.Workers < 2 {
		t.Fatalf("search ran on %d worker, Config.Select asked for %d", stats.Workers, tuned.Parallelism)
	}
	if stats.WallTime <= 0 {
		t.Fatal("no wall time reported")
	}
}

// TestPortfolioGroupCreate: the portfolio strategy creates a working
// group whose selection matches the exhaustive optimum on a problem small
// enough for the exhaustive racer to finish.
func TestPortfolioGroupCreate(t *testing.T) {
	model := testModel(t)
	args := []any{3, []int{10, 10, 1000}, 100}
	plain, _ := exhaustivePaper9Opts()
	runOnce := func(opts mapper.Options) []int {
		t.Helper()
		rt := selectRuntime(t, opts)
		defer rt.Finalize()
		var ranks []int
		err := rt.Run(func(h *Process) error {
			var g *Group
			var err error
			if h.IsHost() || h.IsFree() {
				g, err = h.GroupCreate(model, args...)
				if err != nil {
					return err
				}
			}
			if h.IsMember(g) && h.IsHost() {
				ranks = g.WorldRanks()
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return ranks
	}
	want := runOnce(plain)
	got := runOnce(mapper.Options{Strategy: mapper.StrategyPortfolio, Parallelism: 2})
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("portfolio selected %v, exhaustive %v", got, want)
		}
	}
}
