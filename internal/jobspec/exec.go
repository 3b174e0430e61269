package jobspec

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/apps/em3d"
	"repro/internal/apps/jacobi"
	"repro/internal/apps/matmul"
	"repro/internal/chaos"
	"repro/internal/hmpi"
	"repro/internal/mapper"
	"repro/internal/vclock"
)

// ExecOptions carries the per-execution environment a front end wires
// around a job: observation hooks and the shared selection cache.
type ExecOptions struct {
	// Selection, when non-nil, is the cross-job selection cache every
	// runtime of this execution memoises into (hmpi.Config.Selection).
	Selection *mapper.SelectionCache
	// OnRuntime, when non-nil, is called with the freshly constructed
	// runtime before the job runs — the hook for tracing, recorders, or
	// test instrumentation. It must not call Run.
	OnRuntime func(*hmpi.Runtime)
	// OnChaosKill, when non-nil, observes each chaos kill as it fires.
	OnChaosKill func(chaos.Event)
}

// Result is the outcome of one executed job.
type Result struct {
	App  string `json:"app"`
	Mode string `json:"mode"`
	// Makespan is the full simulated wall-clock of the run (Recon,
	// selection, algorithm, recovery), the figure the daemon's
	// bit-identity guarantee is stated over.
	Makespan vclock.Time `json:"makespan"`
	// Time is the algorithm proper, as each app's Result reports it.
	Time vclock.Time `json:"time"`
	// Predicted is HMPI_Timeof's prediction (HMPI runs only).
	Predicted float64 `json:"predicted,omitempty"`
	// Selection is the world ranks the group selection chose.
	Selection []int `json:"selection,omitempty"`
	// L is matmul's generalised block size; Heights jacobi's strips.
	L       int   `json:"l,omitempty"`
	Heights []int `json:"heights,omitempty"`
	// Chaos-run extras: recovery attempts, split of work vs recovery
	// time, and machine pairs degraded into the cost model.
	Attempts int         `json:"attempts,omitempty"`
	WorkTime vclock.Time `json:"work_time,omitempty"`
	Recovery vclock.Time `json:"recovery,omitempty"`
	Degraded [][2]int    `json:"degraded,omitempty"`
}

// Execute runs one job to completion on a fresh per-job runtime and
// returns its result. It is safe to call from many goroutines at once:
// each call owns its runtime, and every runtime works on a private clone
// of the spec's cluster.
func Execute(s Spec, opts ExecOptions) (*Result, error) {
	if err := s.Normalize(); err != nil {
		return nil, err
	}
	prog, err := s.program()
	if err != nil {
		return nil, err
	}
	rt, err := hmpi.New(hmpi.Config{Cluster: s.ClusterOrDefault(), Selection: opts.Selection})
	if err != nil {
		return nil, err
	}
	defer rt.Finalize()
	if opts.OnRuntime != nil {
		opts.OnRuntime(rt)
	}
	if s.Chaos != "" {
		sched, err := chaos.Parse(s.Chaos, rt.World().Size())
		if err != nil {
			return nil, err
		}
		if err := sched.Arm(rt.World(), s.ChaosSeed, opts.OnChaosKill); err != nil {
			return nil, err
		}
		if s.Degrade {
			rt.EnableDegradation()
		}
	}
	mode := apps.HMPI
	switch {
	case s.Chaos != "":
		mode = apps.SelfHealing
	case s.Mode == ModeMPI:
		mode = apps.MPI
	}
	r, err := apps.Run(rt, prog, mode)
	if err != nil {
		return nil, err
	}
	res := &Result{
		App: s.App, Mode: s.Mode,
		Makespan: rt.Makespan(), Time: r.Time, Predicted: r.Predicted, Selection: r.Selection,
		Attempts: r.Attempts, WorkTime: r.WorkTime, Recovery: r.Recovery, Degraded: rt.DegradedPairs(),
	}
	// What a Result says about the plan is what it has always said (the
	// golden file pins it): matmul's baseline reports no block size and
	// jacobi's no selection.
	switch p := prog.(type) {
	case *matmul.Program:
		if s.Mode == ModeHMPI {
			res.L = p.Dist.L()
		}
	case *jacobi.Program:
		res.Heights = p.Heights
		if s.Mode == ModeMPI {
			res.Selection = nil
		}
	}
	return res, nil
}

// program builds the application the spec describes: the one place a job's
// workload is generated, for pricing and running alike.
func (s Spec) program() (apps.Program, error) {
	switch s.App {
	case "em3d":
		pr, err := em3d.Generate(em3d.Config{P: s.P, TotalNodes: s.Nodes, Light: true})
		if err != nil {
			return nil, err
		}
		return &em3d.Program{Problem: pr, Opts: em3d.RunOptions{Iters: s.Iters}}, nil
	case "matmul":
		pr, err := matmul.Generate(matmul.Config{M: s.M, R: s.R, N: s.N})
		if err != nil {
			return nil, err
		}
		ls := []int{s.L}
		if s.L <= 0 {
			ls = CandidateBlockSizes(pr.M, pr.N)
		}
		return &matmul.Program{Problem: pr, Ls: ls}, nil
	case "jacobi":
		pr, err := jacobi.Generate(jacobi.Config{Rows: s.Grid, Cols: s.Grid, Iters: s.Iters, P: s.P})
		if err != nil {
			return nil, err
		}
		return &jacobi.Program{Problem: pr}, nil
	}
	return nil, fmt.Errorf("jobspec: unknown app %q", s.App)
}
