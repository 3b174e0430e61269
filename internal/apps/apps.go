// Package apps holds the one HMPI program every demonstration application
// is an instance of — the shape of the paper's Figures 5 and 8:
//
//	HMPI_Recon → host-side plan from the measured speeds → HMPI_Timeof →
//	HMPI_Group_create → the algorithm → HMPI_Group_free
//
// An application describes itself as a Program; Run executes it in one of
// three modes (HMPI, the plain-MPI baseline, self-healing) and Predict
// prices it without a world. Both plan with the same function, so the
// admission price of a job is the prediction its run will report.
package apps

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/hmpi"
	"repro/internal/hnoc"
	"repro/internal/mpi"
	"repro/internal/pmdl"
	"repro/internal/vclock"
)

// Plan is one candidate parametrisation of a program — a data distribution
// computed from processor speeds — carrying what the members need to run
// it. ModelArgs are the performance model's actual parameters for it.
type Plan interface {
	ModelArgs() []any
}

// Program describes one application to the driver. Its outputs (gathered
// fields, the distribution used) travel on the implementing value, set by
// Run on communicator rank 0.
type Program interface {
	// Name is the trace phase the prediction and the timed region are
	// recorded under, so the predicted-vs-observed report joins them.
	Name() string
	Model() *pmdl.Model
	// KernelUnits is the volume of the benchmark kernel HMPI_Recon runs:
	// the unit the model's volumes are expressed in.
	KernelUnits() float64
	// Scale takes the model's prediction to the whole run: the iteration
	// count where the model describes one iteration.
	Scale() float64
	// Plans returns the candidates for the given per-rank speed
	// estimates; HMPI_Timeof picks the cheapest.
	Plans(speeds []float64) ([]Plan, error)
	// Baseline returns the speed-blind plan of the plain-MPI baseline and
	// the number of leading world ranks that run it.
	Baseline() (Plan, int)
	// Share is collective over comm: every member receives the plan rank
	// 0 chose (the other ranks pass nil).
	Share(comm *mpi.Comm, plan Plan) Plan
	// Run executes the algorithm on comm under the plan. A non-nil
	// collect is collective work to do after the timed region.
	Run(comm *mpi.Comm, plan Plan) (collect func(), err error)
}

// Mode selects how Run executes a program.
type Mode int

const (
	// HMPI is the paper's program: the group is selected from the
	// performance model and the measured speeds.
	HMPI Mode = iota
	// MPI is the baseline: the baseline plan on the first processes of
	// the world in rank order, whatever their speeds.
	MPI
	// SelfHealing is HMPI under hmpi.RunResilient: when a member fails
	// the plan is remade over the survivors, the group recreated and the
	// algorithm restarted. The host (rank 0) must survive.
	SelfHealing
)

// Result reports one run.
type Result struct {
	// Time is the simulated time of the algorithm proper (excluding Recon
	// and group management), the quantity the paper's figures plot.
	// Under SelfHealing it spans the whole region, recoveries included.
	Time vclock.Time
	// Selection is the world ranks running the algorithm, in group order.
	Selection []int
	// Predicted is HMPI_Timeof's prediction for the chosen plan (HMPI
	// mode only).
	Predicted float64
	// SelfHealing only: how many times the algorithm was started, the
	// duration of the final, successful attempt, and the time lost to
	// failed attempts and group recreation (Time - WorkTime).
	Attempts           int
	WorkTime, Recovery vclock.Time
}

// Run executes the program on every process of the runtime.
func Run(rt *hmpi.Runtime, prog Program, mode Mode) (Result, error) {
	var res Result // written by the host (the baseline's rank 0) only
	err := rt.Run(func(h *hmpi.Process) error {
		switch mode {
		case MPI:
			return runBaseline(h, prog, &res)
		case SelfHealing:
			return runSelfHealing(rt, h, prog, &res)
		}
		return runHMPI(h, prog, &res)
	})
	return res, err
}

// RunOn is Run on a fresh runtime over the cluster, finalized on return.
func RunOn(c *hnoc.Cluster, prog Program, mode Mode) (Result, error) {
	rt, err := hmpi.New(hmpi.Config{Cluster: c})
	if err != nil {
		return Result{}, err
	}
	defer rt.Finalize()
	return Run(rt, prog, mode)
}

func runHMPI(h *hmpi.Process, prog Program, res *Result) error {
	units := prog.KernelUnits()
	recon := hmpi.BenchmarkFunc{Units: 1, Run: func(p *mpi.Proc) error { p.Compute(units); return nil }}
	if err := h.Recon(recon); err != nil {
		return err
	}
	var g *hmpi.Group
	var plan Plan
	var err error
	if h.IsHost() {
		plan, res.Predicted, err = choose(prog, h.Speeds(), func(args ...any) (float64, error) {
			return h.Timeof(prog.Model(), args...)
		})
		if err != nil {
			// The free processes are already waiting for the group.
			h.AbortGroupCreate()
			return err
		}
		h.Proc().TracePredict(prog.Name(), res.Predicted)
		g, err = h.GroupCreate(prog.Model(), plan.ModelArgs()...)
	} else if h.IsFree() {
		g, err = h.GroupCreate(nil)
	}
	if err != nil || !h.IsMember(g) {
		return err
	}
	plan = prog.Share(g.Comm(), plan)
	begin, end, err := timed(h.Proc(), g.Comm(), prog, plan, prog.Name())
	if err != nil {
		return err
	}
	if h.IsHost() {
		res.Time, res.Selection = end-begin, g.WorldRanks()
	}
	return h.GroupFree(g)
}

func runBaseline(h *hmpi.Process, prog Program, res *Result) error {
	plan, p := prog.Baseline()
	color := 0
	if h.Rank() >= p {
		color = mpi.Undefined
	}
	comm := h.CommWorld().Split(color, h.Rank())
	if comm == nil {
		return nil
	}
	begin, end, err := timed(h.Proc(), comm, prog, plan, "")
	if err == nil && comm.Rank() == 0 {
		res.Time, res.Selection = end-begin, comm.Group().Ranks()
	}
	return err
}

func runSelfHealing(rt *hmpi.Runtime, h *hmpi.Process, prog Program, res *Result) error {
	start := h.Proc().Now()
	var hostPlan Plan
	remake := func(int) (*pmdl.Model, []any, error) {
		// Plan over the survivors: a dead process must neither hold a
		// share of the data nor shape the distribution.
		speeds := h.Speeds()
		for r := range speeds {
			if rt.World().IsFailed(r) {
				speeds[r] = 0
			}
		}
		plans, err := prog.Plans(speeds)
		if err != nil {
			return nil, nil, err
		}
		if len(plans) != 1 {
			return nil, nil, fmt.Errorf("%s: self-healing needs one plan, not a search over %d", prog.Name(), len(plans))
		}
		hostPlan = plans[0]
		return prog.Model(), hostPlan.ModelArgs(), nil
	}
	return h.RunResilient(remake, func(g *hmpi.Group) error {
		// The first attempt is timed from the start of the resilient
		// region so that initial group creation counts as work, not
		// recovery: a failure-free run reports zero recovery.
		attemptStart := h.Proc().Now()
		if h.IsHost() {
			res.Attempts++
			if res.Attempts == 1 {
				attemptStart = start
			}
		}
		plan := prog.Share(g.Comm(), hostPlan)
		_, end, err := timed(h.Proc(), g.Comm(), prog, plan, "")
		if err == nil && h.IsHost() {
			res.Time, res.WorkTime, res.Selection = end-start, end-attemptStart, g.WorldRanks()
			res.Recovery = res.Time - res.WorkTime
		}
		return err
	})
}

// timed runs the algorithm as the timed region of the run — up to the
// barrier at which the last member finishes — then the program's collect
// step, and returns the region's bounds on this process's clock. A
// non-empty phase records the region in the trace under that name.
func timed(p *mpi.Proc, comm *mpi.Comm, prog Program, plan Plan, phase string) (begin, end vclock.Time, err error) {
	if phase != "" {
		p.TraceRegionBegin(phase)
	}
	begin = p.Now()
	collect, err := prog.Run(comm, plan)
	if err != nil {
		return 0, 0, err
	}
	comm.Barrier()
	end = p.Now()
	if phase != "" {
		p.TraceRegionEnd(phase)
	}
	if collect != nil {
		collect()
	}
	return begin, end, nil
}

// choose prices every candidate plan for the given speeds with timeof and
// returns the cheapest together with its prediction for the whole run. It
// is the planner the run and the admission price share.
func choose(prog Program, speeds []float64, timeof func(args ...any) (float64, error)) (Plan, float64, error) {
	plans, err := prog.Plans(speeds)
	if err != nil {
		return nil, 0, err
	}
	var best Plan
	bestTime := math.Inf(1)
	for _, plan := range plans {
		t, err := timeof(plan.ModelArgs()...)
		if err != nil {
			return nil, 0, err
		}
		if t < bestTime {
			best, bestTime = plan, t
		}
	}
	if best == nil {
		return nil, 0, fmt.Errorf("%s: no feasible plan among %d candidates", prog.Name(), len(plans))
	}
	return best, bestTime * prog.Scale(), nil
}

// chargeOnly backs every charge-only payload up to its size. Nothing ever
// writes it: its receivers read only a message's length.
var chargeOnly [1 << 20]byte

// ChargeOnly returns an n-byte zero payload for a timing-only message,
// whose receiver reads only its length. Up to 1 MiB it is a slice of one
// shared array and allocates nothing; the caller passes it to IsendOwned (an
// immutable buffer) and must never write it.
func ChargeOnly(n int) []byte {
	if n > len(chargeOnly) {
		return make([]byte, n)
	}
	return chargeOnly[:n:n]
}

// SpeedOrder returns the first p ≤ len(speeds) process ranks host-first,
// then by descending speed (stable on rank): the order in which data
// distributions hand out their shares, mirroring the greedy order the
// selection tends to choose.
func SpeedOrder(speeds []float64, host, p int) []int {
	order := []int{host}
	for r := range speeds {
		if r != host {
			order = append(order, r)
		}
	}
	slices.SortStableFunc(order[1:], func(a, b int) int { return cmp.Compare(speeds[b], speeds[a]) })
	return order[:p]
}

// Predict prices the program without constructing a world: the planner of
// an HMPI-mode run, fed the speeds HMPI_Recon would report on the unloaded
// cluster. It returns what that run's Result.Predicted would be.
func Predict(cfg hmpi.Config, prog Program) (float64, error) {
	speeds, err := hmpi.ReconSpeeds(cfg, prog.KernelUnits())
	if err != nil {
		return 0, err
	}
	_, t, err := choose(prog, speeds, func(args ...any) (float64, error) {
		t, _, err := hmpi.PredictTimeofAt(cfg, speeds, prog.Model(), args...)
		return t, err
	})
	return t, err
}
