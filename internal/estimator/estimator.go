// Package estimator implements the prediction core of HMPI_Timeof and
// HMPI_Group_create: given an instantiated performance model, the model of
// the executing network (link specifications plus the processor speeds most
// recently estimated by HMPI_Recon), and a candidate assignment of the
// model's abstract processors to actual processes, it predicts the
// execution time of the algorithm by replaying the scheme's task graph
// against the candidate's resources.
package estimator

import (
	"fmt"

	"repro/internal/hnoc"
	"repro/internal/pmdl"
	"repro/internal/sched"
)

// Estimator predicts execution times for one model instance on one
// network. The scheme's task graph is built once; every candidate
// evaluation only replays it, so a group-selection search can score many
// candidates cheaply.
type Estimator struct {
	inst      *pmdl.Instance
	dag       *sched.DAG
	cluster   *hnoc.Cluster
	speeds    []float64 // estimated speed per world process
	placement []int     // world rank -> machine index

	// Search-support state, precomputed once so the group-selection
	// engine's hot path touches only read-only data:
	compBusy  []float64 // per abstract processor, total compute units in the DAG
	maxSpeed  float64   // fastest process speed, for LowerBound
	machClass []int     // machine -> link-interchangeability class
}

// New prepares an estimator. speeds[r] is the estimated speed of world
// process r in benchmark units per second (from HMPI_Recon); placement[r]
// is the machine process r runs on.
func New(inst *pmdl.Instance, cluster *hnoc.Cluster, speeds []float64, placement []int) (*Estimator, error) {
	if len(speeds) != len(placement) {
		return nil, fmt.Errorf("estimator: %d speeds for %d processes", len(speeds), len(placement))
	}
	for r, m := range placement {
		if m < 0 || m >= cluster.Size() {
			return nil, fmt.Errorf("estimator: process %d placed on machine %d out of range", r, m)
		}
		if speeds[r] <= 0 {
			return nil, fmt.Errorf("estimator: process %d has non-positive speed %v", r, speeds[r])
		}
	}
	dag, err := inst.BuildDAG()
	if err != nil {
		return nil, err
	}
	compBusy := make([]float64, inst.NumProcs)
	for _, t := range dag.Tasks {
		if t.Kind == sched.KindCompute {
			compBusy[t.Proc] += t.Units
		}
	}
	maxSpeed := 0.0
	for _, s := range speeds {
		if s > maxSpeed {
			maxSpeed = s
		}
	}
	return &Estimator{
		inst:      inst,
		dag:       dag,
		cluster:   cluster,
		speeds:    append([]float64(nil), speeds...),
		placement: append([]int(nil), placement...),
		compBusy:  compBusy,
		maxSpeed:  maxSpeed,
		machClass: classifyMachines(cluster),
	}, nil
}

// Instance returns the model instance being estimated.
func (e *Estimator) Instance() *pmdl.Instance { return e.inst }

// Timeof predicts the execution time (seconds) of the algorithm when
// abstract processor i runs as world process candidate[i]. Processes
// sharing a machine share its speed evenly. It panics on malformed
// candidates (the mapper only generates well-formed ones). A search scoring
// many candidates keeps one Session per worker instead.
func (e *Estimator) Timeof(candidate []int) float64 {
	return e.TimeofWith(candidate, true)
}

// TimeofWith is Timeof with the sender-interface serialisation toggleable:
// serialiseNIC=false models an idealised network where one sender's
// transfers all proceed in parallel. Used by the ablation study of the
// network model.
func (e *Estimator) TimeofWith(candidate []int, serialiseNIC bool) float64 {
	s := e.Session()
	s.res.SerialiseNIC = serialiseNIC
	return s.Timeof(candidate)
}

// NaiveTimeof is the ablation baseline for the DAG-based estimator: it
// ignores the scheme and simply takes the maximum over processors of
// computation time plus total incoming and outgoing communication time,
// with no overlap and no serialisation.
func (e *Estimator) NaiveTimeof(candidate []int) float64 {
	share := make(map[int]int, len(candidate))
	for _, r := range candidate {
		share[e.placement[r]]++
	}
	worst := 0.0
	for p := 0; p < e.inst.NumProcs; p++ {
		r := candidate[p]
		speed := e.speeds[r] / float64(share[e.placement[r]])
		t := e.inst.CompVolume[p] / speed
		for q := 0; q < e.inst.NumProcs; q++ {
			if q == p {
				continue
			}
			out := e.cluster.ModelLink(e.placement[r], e.placement[candidate[q]])
			t += e.inst.CommVolume[p][q]/out.Bandwidth + e.inst.CommVolume[q][p]/out.Bandwidth
		}
		if t > worst {
			worst = t
		}
	}
	return worst
}
