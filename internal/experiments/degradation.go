package experiments

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/apps/em3d"
	"repro/internal/apps/matmul"
	"repro/internal/chaos"
	"repro/internal/hmpi"
	"repro/internal/hnoc"
	"repro/internal/vclock"
)

// TableDegradation measures graceful degradation under injected failures
// (Table F): both applications run under the self-healing harness while a
// deterministic chaos schedule kills k = 0..3 of the initially selected
// workers, spread evenly over the failure-free makespan. Reported per k:
// the total makespan (recoveries included) and the recovery overhead, i.e.
// the simulated time lost to failed attempts and group recreation.
func TableDegradation() (*Figure, error) {
	const maxKills = 3
	f := &Figure{
		ID:     "degradation",
		Title:  "Graceful degradation under k injected failures (Table F)",
		XLabel: "injected failures k",
		YLabel: "time [s]",
	}

	em3dPr, err := em3d.Generate(em3d.Config{P: 6, TotalNodes: 60_000, K: 1000, Light: true})
	if err != nil {
		return nil, err
	}
	// resilient runs a program under the self-healing driver with the
	// kill schedule attached. A fresh cluster per run: failure marks are
	// durable on a cluster.
	resilient := func(prog apps.Program, sched *chaos.Schedule) (apps.Result, error) {
		rt, err := hmpi.New(hmpi.Config{Cluster: hnoc.Paper9()})
		if err != nil {
			return apps.Result{}, err
		}
		defer rt.Finalize()
		if sched != nil {
			if err := sched.Attach(rt.World(), nil); err != nil {
				return apps.Result{}, err
			}
		}
		return apps.Run(rt, prog, apps.SelfHealing)
	}
	em3dRun := func(sched *chaos.Schedule) (apps.Result, error) {
		return resilient(&em3d.Program{Problem: em3dPr, Opts: em3d.RunOptions{Iters: em3dIters}}, sched)
	}

	mmPr, err := matmul.Generate(matmul.Config{M: 2, R: 8, N: 16})
	if err != nil {
		return nil, err
	}
	mmRun := func(sched *chaos.Schedule) (apps.Result, error) {
		return resilient(&matmul.Program{Problem: mmPr, Ls: []int{8}}, sched)
	}

	emBase, err := em3dRun(nil)
	if err != nil {
		return nil, err
	}
	mmBase, err := mmRun(nil)
	if err != nil {
		return nil, err
	}

	var emT, emR, mmT, mmR []float64
	var emAttempts, mmAttempts []int
	for k := 0; k <= maxKills; k++ {
		emRes, mmRes := emBase, mmBase
		if k > 0 {
			emRes, err = em3dRun(killSchedule(emBase.Selection, emBase.Time, k))
			if err != nil {
				return nil, fmt.Errorf("em3d k=%d: %w", k, err)
			}
			mmRes, err = mmRun(killSchedule(mmBase.Selection, mmBase.Time, k))
			if err != nil {
				return nil, fmt.Errorf("mm k=%d: %w", k, err)
			}
		}
		f.X = append(f.X, float64(k))
		emT = append(emT, float64(emRes.Time))
		emR = append(emR, float64(emRes.Recovery))
		mmT = append(mmT, float64(mmRes.Time))
		mmR = append(mmR, float64(mmRes.Recovery))
		emAttempts = append(emAttempts, emRes.Attempts)
		mmAttempts = append(mmAttempts, mmRes.Attempts)
	}
	f.Series = []Series{
		{Name: "EM3D makespan", Y: emT},
		{Name: "EM3D recovery", Y: emR},
		{Name: "MM makespan", Y: mmT},
		{Name: "MM recovery", Y: mmR},
	}
	f.Notes = append(f.Notes,
		"EM3D: 6 subbodies, 60k nodes on the 9-machine paper network (3 spares);",
		"MM: 2x2 grid, n=16, r=8, l=8 (5 spares). Victims are the first k",
		"initially selected workers, killed at i/(k+1) of the failure-free",
		"makespan. A victim not re-selected after an earlier recovery parks and",
		"never dies, so the effective failure count can be below k.",
		fmt.Sprintf("Attempts per k: EM3D %v, MM %v.", emAttempts, mmAttempts),
		"Makespan grows with k while the result stays correct: capacity, not",
		"correctness, degrades.")
	return f, nil
}

// killSchedule kills the first k non-host members of selection, spread
// evenly over the failure-free makespan.
func killSchedule(selection []int, total vclock.Time, k int) *chaos.Schedule {
	s := &chaos.Schedule{}
	for _, r := range selection {
		if r == hmpi.HostRank {
			continue
		}
		i := len(s.Events)
		if i >= k {
			break
		}
		s.Events = append(s.Events, chaos.Event{
			Rank: r,
			At:   total * vclock.Time(i+1) / vclock.Time(k+1),
		})
	}
	return s
}
