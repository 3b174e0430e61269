package hmpi

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/hnoc"
	"repro/internal/mapper"
)

// TestGroupCreateSelectDeterministic: the runtime's one search selects the
// same group on every run, and the parent's handle — only the parent's —
// surfaces the search statistics.
func TestGroupCreateSelectDeterministic(t *testing.T) {
	model := testModel(t)
	args := []any{4, []int{10, 300, 40, 80}, 50}

	runOnce := func() ([]int, mapper.SearchStats) {
		t.Helper()
		rt, err := New(Config{Cluster: hnoc.Paper9()})
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Finalize()
		var ranks []int
		var stats mapper.SearchStats
		err = rt.Run(func(h *Process) error {
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
			return h.GroupFree(g)
		})
		if err != nil {
			t.Fatal(err)
		}
		return ranks, stats
	}

	wantRanks, wantStats := runOnce()
	if wantStats.Evaluations == 0 {
		t.Fatal("the parent's handle reports no evaluations")
	}
	if gotRanks, _ := runOnce(); !slices.Equal(gotRanks, wantRanks) {
		t.Fatalf("second run selected %v, first %v", gotRanks, wantRanks)
	}
}

// TestPaper9EvaluationReduction pins the headline efficiency claim on the
// paper's own network: on the 9-workstation cluster — six of them
// identical — the orbit walk plus branch-and-bound must cut the
// objective evaluations of the job's group selection at least 5x.
func TestPaper9EvaluationReduction(t *testing.T) {
	model := testModel(t)
	args := []any{4, []int{10, 300, 40, 80}, 50}
	_, st, err := PredictTimeof(Config{Cluster: hnoc.Paper9()}, model, args...)
	if err != nil {
		t.Fatal(err)
	}
	if st.Evaluations == 0 {
		t.Fatalf("search stats missing: %+v", st)
	}
	// Every assignment is evaluated, served from the memo or pruned;
	// the job's search must evaluate at most a fifth of them.
	tree := st.Evaluations + st.CacheHits + st.Pruned
	if reduction := float64(tree) / float64(st.Evaluations); reduction < 5 {
		t.Fatalf("symmetry+pruning reduced evaluations only %.2fx (%d -> %d), want >= 5x",
			reduction, tree, st.Evaluations)
	}
}
