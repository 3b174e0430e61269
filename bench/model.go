package main

import (
	"fmt"
	"sort"

	"repro/internal/apps/em3d"
	"repro/internal/apps/jacobi"
	"repro/internal/apps/matmul"
	"repro/internal/estimator"
	"repro/internal/hmpi"
	"repro/internal/hnoc"
	"repro/internal/jobspec"
	"repro/internal/mapper"
	"repro/internal/mpi"
	"repro/internal/pmdl"
)

// jobspec.Execute is opaque from outside, so the ladder's leaves rebuild a
// job's selection problem from the same public pieces the job uses
// (apps.Generate, Model, Instantiate, estimator.New, mapper.Solve) and
// time each directly. The steps below follow jobspec.Predict.

// generate runs the spec's workload generator alone.
func generate(s jobspec.Spec) (any, error) {
	switch s.App {
	case "em3d":
		return em3d.Generate(em3d.Config{P: s.P, TotalNodes: s.Nodes, Light: true})
	case "matmul":
		return matmul.Generate(matmul.Config{M: s.M, R: s.R, N: s.N})
	case "jacobi":
		return jacobi.Generate(jacobi.Config{Rows: s.Grid, Cols: s.Grid, Iters: s.Iters, P: s.P})
	}
	return nil, fmt.Errorf("unknown app %q", s.App)
}

// modelCalls returns the spec's performance model and the argument list of
// every HMPI_Timeof the job prices: one, or one per candidate block size
// for a matmul job with L = 0. The job then solves the winning arguments
// once more in HMPI_Group_create.
func modelCalls(s jobspec.Spec) (*pmdl.Model, [][]any, error) {
	if err := s.Normalize(); err != nil {
		return nil, nil, err
	}
	problem, err := generate(s)
	if err != nil {
		return nil, nil, err
	}
	speeds := s.ClusterOrDefault().Speeds() // nominal: what a runtime knows before HMPI_Recon
	switch pr := problem.(type) {
	case *em3d.Problem:
		return em3d.Model(), [][]any{pr.ModelArgs()}, nil
	case *matmul.Problem:
		grid, _, err := matmul.ArrangeGrid(speeds, hmpi.HostRank, pr.M)
		if err != nil {
			return nil, nil, err
		}
		ls := []int{s.L}
		if s.L <= 0 {
			ls = jobspec.CandidateBlockSizes(pr.M, pr.N)
		}
		var calls [][]any
		for _, l := range ls {
			d, err := matmul.NewHetero(grid, l, pr.N, pr.R)
			if err != nil {
				return nil, nil, err
			}
			calls = append(calls, d.ModelArgs())
		}
		return matmul.Model(), calls, nil
	case *jacobi.Problem:
		rest := append([]float64(nil), speeds[hmpi.HostRank+1:]...)
		rest = append(rest, speeds[:hmpi.HostRank]...)
		sort.Sort(sort.Reverse(sort.Float64Slice(rest)))
		strip := append([]float64{speeds[hmpi.HostRank]}, rest...)
		if len(strip) > pr.P {
			strip = strip[:pr.P]
		}
		heights, err := pr.Heights(strip)
		if err != nil {
			return nil, nil, err
		}
		return jacobi.Model(), [][]any{pr.ModelArgs(heights)}, nil
	}
	return nil, nil, fmt.Errorf("unknown problem type %T", problem)
}

// selection is one instantiated selection problem, ready to solve.
type selection struct {
	inst *pmdl.Instance
	est  *estimator.Estimator
	pr   mapper.Problem
}

// newSelection instantiates the model and builds the estimator and the
// mapper problem the way hmpi.PredictTimeof does: nominal speeds, every
// rank available, the parent pinned to the host.
func newSelection(model *pmdl.Model, args []any, cluster *hnoc.Cluster) (*selection, error) {
	inst, err := model.Instantiate(args...)
	if err != nil {
		return nil, err
	}
	placement := mpi.OneProcessPerMachine(cluster)
	speeds := cluster.Speeds()
	est, err := estimator.New(inst, cluster, speeds, placement)
	if err != nil {
		return nil, err
	}
	return &selection{inst: inst, est: est, pr: mapper.Problem{
		P:            inst.NumProcs,
		Avail:        placement, // rank r runs on machine r, so the ranks are 0..n-1 too
		Fixed:        map[int]int{inst.Parent: hmpi.HostRank},
		Weights:      inst.CompVolume,
		SpeedOf:      func(r int) float64 { return speeds[r] },
		Objective:    est.Session().Timeof,
		NewObjective: func() mapper.Objective { return est.Session().Timeof },
		LowerBound:   est.LowerBound,
		CanonicalKey: est.AppendCanonicalKey,
	}}, nil
}
