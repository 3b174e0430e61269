// Package hmpi is the core of this repository: an implementation of HMPI
// (Heterogeneous MPI), the extension of MPI proposed by Lastovetsky and
// Reddy for programming high-performance computations on heterogeneous
// networks of computers.
//
// HMPI adds a small set of operations to MPI:
//
//	HMPI_Init / HMPI_Finalize      -> Runtime.Run (process lifecycle)
//	HMPI_COMM_WORLD                -> Process.CommWorld
//	HMPI_Recon                     -> Process.Recon
//	HMPI_Timeof                    -> Process.Timeof
//	HMPI_Group_create              -> Process.GroupCreate
//	HMPI_Group_free                -> Process.GroupFree
//	HMPI_Get_comm                  -> Group.Comm
//	HMPI_Group_rank / _size        -> Group.Rank / Group.Size
//	HMPI_Is_host/_free/_member     -> Process.IsHost / IsFree / IsMember
//
// The application programmer describes the performance model of the
// implemented algorithm in the model definition language (package pmdl).
// Given the model, HMPI_Group_create selects — from the processes of the
// heterogeneous network — the group that executes the algorithm faster
// than any other group, accounting for processor speeds (kept current by
// HMPI_Recon), link latencies and bandwidths, and the structure of the
// algorithm's computations and communications.
package hmpi

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/hnoc"
	"repro/internal/mapper"
	"repro/internal/mpi"
	"repro/internal/vclock"
)

// HostRank is the world rank of the host process (the designated parent of
// first-level groups), by convention process 0 — the process the user's
// terminal is attached to in the paper's runtime.
const HostRank = 0

// Runtime message tags. The range below -200 is reserved for the HMPI
// runtime (communicator-internal collectives use -100..-199). Group
// creation is a two-phase collective: the parent distributes the selection
// (tagGroupCreate), every recipient acknowledges (tagGroupAck), and the
// parent commits (tagGroupCommit) once all acknowledgements are in — so a
// creation only completes after every participant has consumed it, and a
// member of one group can immediately parent a child group without its
// messages overtaking the previous creation's.
const (
	tagGroupCreate = -201
	tagGroupAck    = -202
	tagGroupCommit = -203
)

// Config describes an HMPI run.
type Config struct {
	// Cluster is the heterogeneous network of computers to run on. New
	// deep-copies it: the runtime's view of the network (including
	// failure and degradation state accumulated during the run) is
	// private, so any number of runtimes may be created from one cluster
	// value and run concurrently.
	Cluster *hnoc.Cluster
	// Placement maps world ranks to machine indexes. Nil means one
	// process per machine, the configuration the paper assumes.
	Placement []int
	// Selection is the store every Timeof and group-selection search looks
	// its problem up in first and memoises into: a problem solved before is
	// not solved again, and the candidates a search scores are kept under
	// the cost model's namespace (estimator.AppendNamespace). Nil means a
	// cache private to the runtime, so HMPI_Group_create still takes the
	// solve HMPI_Timeof just made; a caller-owned one carries solves across
	// runtime lifecycles as well (hmpid owns one per daemon) and is shared
	// safely by concurrent runtimes. Results are bit-identical either way.
	Selection *mapper.SelectionCache
}

// Runtime is an initialised HMPI runtime system: the analogue of the state
// HMPI_Init sets up across the processes of the parallel program.
type Runtime struct {
	cfg       Config
	world     *mpi.World
	placement []int

	// free tracks which world ranks are not members of any HMPI group.
	// It is the runtime's global process registry; entries change only
	// inside the collective GroupCreate/GroupFree operations.
	freeMu sync.Mutex
	free   []bool

	keyMu   sync.Mutex
	nextKey int64

	// degrade is the graceful-degradation tracker, nil until
	// EnableDegradation. Set before Run, so every process sees the same
	// (possibly nil) tracker — the resilient protocol relies on that
	// uniformity.
	degrade *degradeState

	// finalized flips once in Finalize; Run refuses afterwards.
	finalized atomic.Bool
}

// New validates the configuration and creates the runtime. The runtime is
// self-contained: it works on a private copy of the cluster and shares no
// mutable state with other runtimes (beyond an explicitly provided
// Config.Selection cache, which is concurrency-safe), so runtimes can be
// created, run, and finalized concurrently — one per job in a service.
func New(cfg Config) (*Runtime, error) {
	if cfg.Cluster == nil {
		return nil, fmt.Errorf("hmpi: nil cluster")
	}
	if err := cfg.Cluster.Validate(); err != nil {
		return nil, err
	}
	// Private copy: OnFail and EnableDegradation mutate the cluster's
	// failure/degradation view, which must never leak across runtimes.
	cfg.Cluster = cfg.Cluster.Clone()
	if cfg.Selection == nil {
		cfg.Selection = mapper.NewSelectionCache(0)
	}
	placement := cfg.Placement
	if placement == nil {
		placement = mpi.OneProcessPerMachine(cfg.Cluster)
	}
	rt := &Runtime{
		cfg:       cfg,
		world:     mpi.NewWorld(cfg.Cluster, placement),
		placement: append([]int(nil), placement...),
		free:      make([]bool, len(placement)),
	}
	for i := range rt.free {
		rt.free[i] = i != HostRank // the host is never "free": it is the parent
	}
	// Failure detection feeds the process registry: a failed process
	// leaves the free pool, and its machine is marked dead so group
	// selection and Timeof stop considering it.
	rt.world.OnFail(func(rank int) {
		rt.setFree(rank, false)
		rt.cfg.Cluster.MarkFailed(rt.placement[rank])
	})
	return rt, nil
}

// World exposes the underlying message-passing world.
func (rt *Runtime) World() *mpi.World { return rt.world }

// Finalize closes the runtime, the analogue of HMPI_Finalize. It is
// idempotent; after it returns, Run refuses to execute. It releases
// nothing — a runtime holds no resource beyond its memory — and
// accessors (Makespan, World) stay readable so results can be collected
// after the runtime is closed.
func (rt *Runtime) Finalize() {
	rt.finalized.Store(true)
}

// Makespan returns the simulated execution time after Run completes.
func (rt *Runtime) Makespan() vclock.Time { return rt.world.Makespan() }

// InjectFailure marks a process as failed (fault-tolerance extension):
// pending and future communication with it errors instead of hanging, and
// group selection stops considering it. The registered failure hook does
// the registry bookkeeping.
func (rt *Runtime) InjectFailure(rank int) {
	rt.world.Fail(rank)
}

// Run executes main as the body of every HMPI process, the SPMD region
// between HMPI_Init and HMPI_Finalize. It returns the first process error.
// A process whose main returns nil while still a member of a group has
// leaked it — its processes never return to the free pool later
// selections choose from — and that is its error, unless the process has
// failed: a corpse cannot free its group, and the survivors dissolve it.
func (rt *Runtime) Run(main func(h *Process) error) error {
	if rt.finalized.Load() {
		return fmt.Errorf("hmpi: Run on a finalized runtime")
	}
	return rt.world.Run(func(p *mpi.Proc) error {
		h := &Process{rt: rt, proc: p}
		// Initial speed estimates: the nominal speeds of the machines
		// each process runs on (what the runtime knows before the
		// first HMPI_Recon).
		h.speeds = make([]float64, rt.world.Size())
		for r := range h.speeds {
			h.speeds[r] = rt.cfg.Cluster.Machines[rt.placement[r]].Speed
		}
		if err := main(h); err != nil {
			return err
		}
		if len(h.groups) > 0 && !rt.world.IsFailed(h.Rank()) {
			return fmt.Errorf("hmpi: process %d returned from Run still a member of group %d: missing GroupFree", h.Rank(), h.groups[0])
		}
		return nil
	})
}

// allocGroupKey hands the host a fresh key for communicator derivation.
func (rt *Runtime) allocGroupKey() int64 {
	rt.keyMu.Lock()
	defer rt.keyMu.Unlock()
	rt.nextKey++
	return rt.nextKey
}

// freeRanks snapshots the currently free, non-failed ranks.
func (rt *Runtime) freeRanks() []int {
	rt.freeMu.Lock()
	defer rt.freeMu.Unlock()
	var out []int
	for r, f := range rt.free {
		if f && !rt.world.IsFailed(r) && !rt.cfg.Cluster.IsMachineFailed(rt.placement[r]) {
			out = append(out, r)
		}
	}
	return out
}

// setFree updates a rank's free status.
func (rt *Runtime) setFree(rank int, free bool) {
	rt.freeMu.Lock()
	rt.free[rank] = free
	rt.freeMu.Unlock()
}

// isFree reports a rank's free status.
func (rt *Runtime) isFree(rank int) bool {
	rt.freeMu.Lock()
	defer rt.freeMu.Unlock()
	return rt.free[rank]
}
