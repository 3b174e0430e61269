package hmpi

import (
	"testing"
	"time"

	"repro/internal/hnoc"
	"repro/internal/mapper"
)

// TestGroupCreateReusesTimeofSolve: HMPI_Group_create for a plan HMPI_Timeof
// has just priced takes that solve — and only when nothing the selection
// depends on moved in between. The whole-solve memo of a selection cache
// counts one lookup per search actually run, which is how the test tells a
// reused solve from a fresh one.
func TestGroupCreateReusesTimeofSolve(t *testing.T) {
	const victim = 4
	cases := []struct {
		name string
		// between runs on the host after its Timeof calls and before its
		// GroupCreate.
		between func(rt *Runtime, h *Process) error
		recon   bool // every process calls Recon between the two
		solves  int64
	}{
		{name: "nothing moved", solves: 2},
		{name: "recon", recon: true, solves: 3},
		{name: "kill", between: func(rt *Runtime, _ *Process) error { rt.InjectFailure(victim); return nil }, solves: 3},
		{name: "degrade", between: func(rt *Runtime, _ *Process) error { rt.Cluster().DegradeLink(0, 1, 4); return nil }, solves: 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cache := mapper.NewSelectionCache(0)
			rt, err := New(Config{Cluster: hnoc.Paper9(), Selection: cache})
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Finalize()
			model := testModel(t)
			winner := []any{3, []int{4, 2, 1}, 1000}
			killed := make(chan struct{})
			var timeofStats, groupStats mapper.SearchStats
			survived := 0 // planned solves left after the creation
			err = runRuntimeWithTimeout(t, rt, 30*time.Second, func(h *Process) error {
				if h.IsHost() {
					// Two plans priced, the first one wins: the solve to
					// reuse is not the last one made.
					if _, err := h.Timeof(model, winner...); err != nil {
						return err
					}
					if _, err := h.Timeof(model, 3, []int{1, 1, 1}, 1000); err != nil {
						return err
					}
					timeofStats = h.planned[0].asg.Stats
					if tc.between != nil {
						if err := tc.between(rt, h); err != nil {
							return err
						}
					}
					close(killed)
				}
				if tc.recon {
					if err := h.Recon(DefaultBenchmark(1)); err != nil {
						return err
					}
				}
				if h.Rank() == victim {
					<-killed // a killed process must not be inside the creation protocol
					if rt.World().IsFailed(victim) {
						return nil
					}
				}
				g, err := h.GroupCreate(model, winner...)
				if err != nil {
					return err
				}
				if h.IsHost() {
					groupStats, survived = g.SearchStats(), len(h.planned)
				}
				return h.GroupFree(g)
			})
			if err != nil {
				t.Fatal(err)
			}
			if survived != 0 {
				t.Errorf("%d planned solves survive a group creation", survived)
			}
			st := cache.Stats()
			if got := st.SolveHits + st.SolveMisses; got != tc.solves {
				t.Errorf("%d selection searches ran, want %d", got, tc.solves)
			}
			// A reused solve still reports the search that produced it.
			if tc.solves == 2 && (groupStats != timeofStats || groupStats.Evaluations == 0) {
				t.Errorf("parent's SearchStats are %+v, the Timeof search was %+v", groupStats, timeofStats)
			}
		})
	}
}
