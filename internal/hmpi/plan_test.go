package hmpi

import (
	"testing"
	"time"

	"repro/internal/hnoc"
	"repro/internal/mapper"
)

// planRun is one run of the paper's planning round under a selection
// cache: the host prices two plans with HMPI_Timeof — the first one wins,
// so the solve to reuse is not the last one made — and HMPI_Group_create
// builds the winner's group. It returns the search statistics of the
// winner's Timeof and of the group.
type planRun struct {
	cluster *hnoc.Cluster // nil: Paper9
	// moved, when non-nil, runs on the host: before its Timeof calls when
	// movedFirst (the network changed since admission), between them and
	// the creation otherwise.
	moved      func(rt *Runtime)
	movedFirst bool
	// recon makes every process Recon between Timeof and creation.
	recon bool
}

const planVictim = 4

var planWinner = []any{3, []int{4, 2, 1}, 1000}

// planMoves are the two ways the network a selection was solved for stops
// being the network: a process dies, a link degrades.
var planMoves = []struct {
	name  string
	moved func(rt *Runtime)
}{
	{"kill", func(rt *Runtime) { rt.InjectFailure(planVictim) }},
	{"degrade", func(rt *Runtime) { rt.cfg.Cluster.DegradeLink(0, 1, 4) }},
}

func (pr planRun) run(t *testing.T, cache *mapper.SelectionCache) (rt *Runtime, timeofStats, groupStats mapper.SearchStats) {
	t.Helper()
	if pr.cluster == nil {
		pr.cluster = hnoc.Paper9()
	}
	rt, err := New(Config{Cluster: pr.cluster, Selection: cache})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Finalize()
	model := testModel(t)
	ready := make(chan struct{})
	err = runRuntimeWithTimeout(t, rt, 30*time.Second, func(h *Process) error {
		if h.IsHost() {
			if pr.movedFirst && pr.moved != nil {
				pr.moved(rt)
			}
			// Timeof, keeping the search statistics it drops.
			_, asg, err := h.solveSelection(model, planWinner, HostRank)
			if err != nil {
				return err
			}
			timeofStats = asg.Stats
			if _, err := h.Timeof(model, 3, []int{1, 1, 1}, 1000); err != nil {
				return err
			}
			if !pr.movedFirst && pr.moved != nil {
				pr.moved(rt)
			}
			close(ready)
		}
		if pr.recon {
			if err := h.Recon(DefaultBenchmark(1)); err != nil {
				return err
			}
		}
		if h.Rank() == planVictim {
			<-ready // a killed process must not be inside the creation protocol
			if rt.World().IsFailed(planVictim) {
				return nil
			}
		}
		g, err := h.GroupCreate(model, planWinner...)
		if err != nil {
			return err
		}
		if h.IsHost() {
			groupStats = g.stats
		}
		return h.GroupFree(g)
	})
	if err != nil {
		t.Fatal(err)
	}
	return rt, timeofStats, groupStats
}

// TestGroupCreateReusesTimeofSolve: HMPI_Group_create for a plan HMPI_Timeof
// has just priced takes that solve — and only when nothing the selection
// depends on moved in between. Nothing invalidates anything: speeds, the
// available ranks and the link costs are in the key, so a moved input is a
// miss — and a Recon that measures what was already believed is not one. A
// runtime given no cache reuses exactly as one given the daemon's.
func TestGroupCreateReusesTimeofSolve(t *testing.T) {
	type row struct {
		name   string
		run    planRun
		misses int64
	}
	loaded := hnoc.Paper9()
	loaded.Machines[6].Load = hnoc.ConstantLoad{Fraction: 0.25}
	rows := []row{
		{"nothing moved", planRun{}, 2},
		{"recon", planRun{cluster: loaded, recon: true}, 3},
		{"recon measures the nominal speeds", planRun{recon: true}, 2},
	}
	for _, m := range planMoves {
		rows = append(rows, row{m.name, planRun{moved: m.moved}, 3})
	}
	for _, tc := range rows {
		t.Run(tc.name, func(t *testing.T) {
			for name, cache := range map[string]*mapper.SelectionCache{"shared cache": mapper.NewSelectionCache(0), "private cache": nil} {
				t.Run(name, func(t *testing.T) {
					rt, timeofStats, groupStats := tc.run.run(t, cache)
					if got := rt.cfg.Selection.Stats().SolveMisses; got != tc.misses {
						t.Errorf("%d selection searches ran, want %d", got, tc.misses)
					}
					// A reused solve reports the search that produced it.
					want := timeofStats
					want.Memoized = true
					if tc.misses == 2 && (groupStats != want || groupStats.Evaluations == 0) {
						t.Errorf("parent's SearchStats are %+v, the Timeof search was %+v", groupStats, timeofStats)
					}
				})
			}
		})
	}
}

// TestAdmissionSolveServesTheRun: a job priced at admission (PredictTimeofAt
// under the speeds the run starts from, into the daemon's cache) runs
// without a single search — its Timeof and its Group_create are that solve —
// unless the network the run sees is no longer the one admission priced: a
// degraded link or a dead machine between the two is a different problem.
func TestAdmissionSolveServesTheRun(t *testing.T) {
	type row struct {
		name  string
		moved func(rt *Runtime)
		// fresh is how many of the run's three selections (two Timeof, one
		// Group_create for the first's plan) must search.
		fresh int64
	}
	rows := []row{{"nothing moved", nil, 0}}
	for _, m := range planMoves {
		rows = append(rows, row{m.name, m.moved, 2})
	}
	for _, tc := range rows {
		t.Run(tc.name, func(t *testing.T) {
			cache := mapper.NewSelectionCache(0)
			cfg := Config{Cluster: hnoc.Paper9(), Selection: cache}
			model := testModel(t)
			for _, args := range [][]any{planWinner, {3, []int{1, 1, 1}, 1000}} {
				if _, _, err := PredictTimeofAt(cfg, nil, model, args...); err != nil {
					t.Fatal(err)
				}
			}
			admitted := cache.Stats()
			planRun{moved: tc.moved, movedFirst: true}.run(t, cache)
			st := cache.Stats()
			if got := st.SolveMisses - admitted.SolveMisses; got != tc.fresh {
				t.Errorf("the run searched %d times, want %d", got, tc.fresh)
			}
			if got := st.SolveHits - admitted.SolveHits; got != 3-tc.fresh {
				t.Errorf("the run took %d solves from the cache, want %d", got, 3-tc.fresh)
			}
		})
	}
}
