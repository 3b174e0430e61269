package experiments

import (
	"repro/internal/estimator"
	"repro/internal/mapper"
)

// engineProblem wires a selection problem to what the exhaustive search
// engine can exploit, when asked: the compute-only lower bound (the engine
// then prunes) and the machine-symmetry canonical key (it then memoises).
func engineProblem(est *estimator.Estimator, bound, key bool) mapper.Problem {
	pr := selectionProblem(est, est.Session().Timeof)
	if bound {
		pr.LowerBound = est.LowerBound
	}
	if key {
		pr.CanonicalKey = est.AppendCanonicalKey
	}
	return pr
}

// searchConfigs are the engine configurations the search table sweeps.
// Pruning and the symmetry memo have no switch — the engine uses whatever
// hooks the Problem supplies — so the ablation rows withhold the hooks.
var searchConfigs = []struct {
	Name       string
	Bound, Key bool
}{
	{"serial", false, false},
	{"pruned", true, false},
	{"symmetry", false, true},
	{"pruned+sym", true, true},
}

// TableSearch runs the exhaustive group selection for the EM3D instance
// on the paper network under each engine configuration and renders the
// search work as a figure: the prediction, evaluations, cache hits and
// pruned assignments per configuration. Every configuration must
// reproduce the serial prediction exactly — the engine's determinism
// contract. The table is serial so that it is a function of its input: a
// parallel search returns the same selection (mapper's
// TestEngineParallelismInvariance) but splits its leaves between
// evaluations and cache hits by which worker misses a key first. The host
// time of the same searches, parallel included, is bench/'s
// mapper.solve_ms.* rows.
func TableSearch() (*Figure, error) {
	est, err := em3dEstimator(hostileCluster(), 400_000)
	if err != nil {
		return nil, err
	}
	f := &Figure{
		ID:     "search",
		Title:  "Group-selection engine: exhaustive search work per configuration (EM3D, 400k nodes)",
		XLabel: "config (1=serial 2=pruned 3=symmetry 4=pruned+sym)",
		YLabel: "count",
	}
	var pred, evals, hits, pruned []float64
	for i, cfg := range searchConfigs {
		opts := mapper.Options{Strategy: mapper.StrategyExhaustive, ExhaustiveLimit: 1_000_000}
		a, err := mapper.Solve(engineProblem(est, cfg.Bound, cfg.Key), opts)
		if err != nil {
			return nil, err
		}
		f.X = append(f.X, float64(i+1))
		pred = append(pred, a.Time)
		evals = append(evals, float64(a.Stats.Evaluations))
		hits = append(hits, float64(a.Stats.CacheHits))
		pruned = append(pruned, float64(a.Stats.Pruned))
	}
	f.Series = []Series{
		{Name: "predicted [s]", Y: pred},
		{Name: "evaluations", Y: evals},
		{Name: "cache hits", Y: hits},
		{Name: "pruned", Y: pruned},
	}
	f.Notes = append(f.Notes,
		"Every configuration returns the bit-identical selection of the serial scan;",
		"symmetry caching collapses the six identical workstations' permutations and",
		"branch-and-bound cuts subtrees whose compute-only bound exceeds the best.")
	return f, nil
}
