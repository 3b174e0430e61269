// Package jobspec is the single definition of an HMPI job: which
// demonstration application to run, on which cluster, in which mode, with
// which workload dimensions and fault schedule. Both front ends consume
// it — cmd/hmpirun parses one job from flags and runs it in-process,
// cmd/hmpid accepts many as JSON over the control socket and runs them
// through the service's worker pool — so application and topology options
// cannot drift between the two binaries.
package jobspec

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/chaos"
	"repro/internal/hmpi"
	"repro/internal/hnoc"
	"repro/internal/mapper"
)

// Modes. ModeBoth is a front-end convenience (run ModeHMPI then ModeMPI);
// Execute itself takes exactly one run.
const (
	ModeHMPI = "hmpi"
	ModeMPI  = "mpi"
	ModeBoth = "both"
)

// Spec describes one job. The zero value is not runnable; start from
// Default() or fill every field the chosen app needs, then Normalize.
// The JSON form is the hmpid submission payload.
type Spec struct {
	// App selects the application: "em3d", "matmul" or "jacobi".
	App string `json:"app"`
	// Mode selects HMPI group selection ("hmpi", the default) or the
	// plain-MPI baseline ("mpi").
	Mode string `json:"mode,omitempty"`
	// Cluster is the network to simulate; nil means the paper's
	// nine-workstation network (hnoc.Paper9).
	Cluster *hnoc.Cluster `json:"cluster,omitempty"`

	// Nodes, P and Iters parameterise em3d (P and Iters also jacobi).
	Nodes int `json:"nodes,omitempty"`
	P     int `json:"p,omitempty"`
	Iters int `json:"iters,omitempty"`
	// N, R, L and M parameterise matmul; L = 0 searches block sizes.
	N int `json:"n,omitempty"`
	R int `json:"r,omitempty"`
	L int `json:"l,omitempty"`
	M int `json:"m,omitempty"`
	// Grid is jacobi's square grid dimension.
	Grid int `json:"grid,omitempty"`

	// Chaos is a fault schedule (see chaos.Parse; empty = none),
	// ChaosSeed seeds its probabilistic draws, and Degrade lets the
	// runtime fold chronically lossy links into the cost model.
	Chaos     string `json:"chaos,omitempty"`
	ChaosSeed int64  `json:"chaos_seed,omitempty"`
	Degrade   bool   `json:"degrade,omitempty"`

	// Tenant attributes the job for the service's fairness accounting
	// and budgets. Ignored by hmpirun.
	Tenant string `json:"tenant,omitempty"`
}

// Default returns the spec hmpirun's flag defaults describe: em3d, HMPI
// mode, the paper's network and workload sizes.
func Default() Spec {
	return Spec{
		App: "em3d", Mode: ModeHMPI,
		Nodes: 400_000, P: 9, Iters: 10,
		N: 90, R: 9, L: 9, M: 3,
		Grid:      1800,
		ChaosSeed: 1,
	}
}

// Normalize fills defaulted fields from Default() and validates the
// combination, the chaos schedule included. It is idempotent; Execute and
// Predict call it themselves.
func (s *Spec) Normalize() error {
	d := Default()
	for _, size := range []struct {
		name string
		v    *int
		def  int
	}{
		{"nodes", &s.Nodes, d.Nodes}, {"p", &s.P, d.P}, {"iters", &s.Iters, d.Iters},
		{"n", &s.N, d.N}, {"r", &s.R, d.R}, {"m", &s.M, d.M}, {"grid", &s.Grid, d.Grid},
	} {
		if *size.v < 0 {
			return fmt.Errorf("jobspec: negative %s %d", size.name, *size.v)
		}
		if *size.v == 0 {
			*size.v = size.def
		}
	}
	if s.Mode == "" {
		s.Mode = d.Mode
	}
	if s.ChaosSeed == 0 {
		s.ChaosSeed = d.ChaosSeed
	}
	switch s.App {
	case "em3d", "matmul", "jacobi":
	case "":
		return fmt.Errorf("jobspec: no app")
	default:
		return fmt.Errorf("jobspec: unknown app %q", s.App)
	}
	switch s.Mode {
	case ModeHMPI, ModeMPI:
	case ModeBoth:
		return fmt.Errorf("jobspec: mode %q is a front-end convenience; execute one mode at a time", ModeBoth)
	default:
		return fmt.Errorf("jobspec: unknown mode %q", s.Mode)
	}
	if s.Chaos != "" {
		if s.Mode != ModeHMPI {
			return fmt.Errorf("jobspec: chaos needs the HMPI mode: the plain MPI baseline has no recovery")
		}
		if s.App == "jacobi" {
			return fmt.Errorf("jobspec: chaos supports em3d and matmul only")
		}
		if s.App == "matmul" && s.L <= 0 {
			return fmt.Errorf("jobspec: chaos needs a fixed matmul block size l: the resilient driver does not search")
		}
	}
	if s.Cluster != nil {
		if err := s.Cluster.Validate(); err != nil {
			return err
		}
	}
	hasLinkFaults := false
	if s.Chaos != "" {
		sched, err := chaos.Parse(s.Chaos, s.ClusterOrDefault().Size())
		if err != nil {
			return err
		}
		hasLinkFaults = sched.HasLinkFaults()
	}
	if s.Degrade && !hasLinkFaults {
		return fmt.Errorf("jobspec: degrade reacts to link faults; give it some with a chaos schedule")
	}
	return nil
}

// ClusterOrDefault returns the spec's cluster, or the paper's network.
func (s *Spec) ClusterOrDefault() *hnoc.Cluster {
	if s.Cluster != nil {
		return s.Cluster
	}
	return hnoc.Paper9()
}

// CandidateBlockSizes returns matmul's geometric sweep of generalised
// block sizes between m and n, the L=0 search space.
func CandidateBlockSizes(m, n int) []int {
	var out []int
	for l := m; l <= n; l *= 2 {
		out = append(out, l)
	}
	if len(out) == 0 || out[len(out)-1] != n {
		out = append(out, n)
	}
	return out
}

// Predict prices the job without running it: the prediction (in simulated
// seconds) an HMPI-mode run of the spec reports on the unloaded cluster —
// the run's own planner, fed the speeds its HMPI_Recon would measure. The
// service's admission control uses it to accept, queue, or reject at submit
// time. Mode and chaos are ignored — the price is the fault-free HMPI
// prediction, which bounds the useful work either mode schedules. A shared
// selection cache makes repeated pricing of similar specs nearly free, and
// the run of a priced job starts from the memo entries its price left.
func (s Spec) Predict(cache *mapper.SelectionCache) (float64, error) {
	if err := s.Normalize(); err != nil {
		return 0, err
	}
	prog, err := s.program()
	if err != nil {
		return 0, err
	}
	return apps.Predict(hmpi.Config{Cluster: s.ClusterOrDefault(), Selection: cache}, prog)
}
