package hmpi

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/estimator"
	"repro/internal/mapper"
	"repro/internal/mpi"
	"repro/internal/pmdl"
	"repro/internal/trace"
)

// Process is the per-process view of the HMPI runtime: the handle the SPMD
// body receives, through which all HMPI operations run.
type Process struct {
	rt   *Runtime
	proc *mpi.Proc
	// speeds is this process's current estimate of every process's
	// speed (benchmark units per second), refreshed collectively by
	// Recon. Every process holds its own copy, as in a distributed
	// runtime.
	speeds []float64
	// groups holds the keys of the groups this process is a member of,
	// oldest first: buildGroup adds one, leave removes it. Run reports
	// a process that returns still holding one.
	groups []int64
}

// Proc exposes the underlying message-passing process, for computation
// accounting (Proc().Compute) and direct MPI calls.
func (h *Process) Proc() *mpi.Proc { return h.proc }

// Rank returns the process's world rank.
func (h *Process) Rank() int { return h.proc.Rank() }

// CommWorld returns HMPI_COMM_WORLD: the communicator over all processes
// of the HMPI program, which applications must use in place of
// MPI_COMM_WORLD.
func (h *Process) CommWorld() *mpi.Comm { return h.proc.CommWorld() }

// IsHost reports whether this process is the host (HMPI_Is_host).
func (h *Process) IsHost() bool { return h.proc.Rank() == HostRank }

// IsFree reports whether this process is not a member of any HMPI group
// (HMPI_Is_free).
func (h *Process) IsFree() bool { return h.rt.isFree(h.proc.Rank()) }

// IsMember reports whether this process is a member of the group
// (HMPI_Is_member). A nil group — what non-selected processes hold after
// GroupCreate — has no members.
func (h *Process) IsMember(g *Group) bool {
	return g != nil && g.rank >= 0
}

// Speeds returns this process's current estimate of all process speeds.
func (h *Process) Speeds() []float64 { return append([]float64(nil), h.speeds...) }

// BenchmarkFunc is the benchmark code HMPI_Recon runs on every process: it
// must perform Units benchmark units of computation via p.Compute (plus
// any real work the application wants to validate with).
type BenchmarkFunc struct {
	// Units is the computation volume the Run function performs.
	Units float64
	// Run executes the benchmark on the calling process.
	Run func(p *mpi.Proc) error
}

// DefaultBenchmark returns a benchmark that executes the given volume of
// the application's kernel.
func DefaultBenchmark(units float64) BenchmarkFunc {
	return BenchmarkFunc{
		Units: units,
		Run:   func(p *mpi.Proc) error { p.Compute(units); return nil },
	}
}

// Recon implements HMPI_Recon: every process of HMPI_COMM_WORLD executes
// the benchmark function in parallel, the time each takes refreshes the
// runtime's estimate of its speed, and the estimates are shared with all
// processes. It must be called collectively by all processes. Applications
// whose machines carry changing external load call Recon before creating
// groups so the selection reflects actual rather than nominal speeds.
// The benchmark measures its process alone, so it must not communicate: a
// message would time its peers and the network too, and Recon fails on a
// process whose benchmark sent or received one.
func (h *Process) Recon(bench BenchmarkFunc) error {
	if bench.Run == nil || bench.Units <= 0 {
		return fmt.Errorf("hmpi: Recon needs a benchmark with positive volume")
	}
	t0, w0 := h.traceStart()
	start, before := h.proc.Now(), h.proc.Stats()
	if err := bench.Run(h.proc); err != nil {
		return fmt.Errorf("hmpi: benchmark failed on process %d: %w", h.Rank(), err)
	}
	if after := h.proc.Stats(); after.MsgsSent != before.MsgsSent || after.MsgsRecv != before.MsgsRecv {
		return fmt.Errorf("hmpi: benchmark on process %d communicated", h.Rank())
	}
	elapsed := float64(h.proc.Now() - start)
	if elapsed <= 0 {
		return fmt.Errorf("hmpi: benchmark on process %d took no time; it must call Compute", h.Rank())
	}
	mine := bench.Units / elapsed
	all := h.CommWorld().Allgather(mpi.Float64Bytes([]float64{mine}))
	for r, b := range all {
		h.speeds[r] = mpi.BytesFloat64(b)[0]
	}
	h.recordRecon(mine, t0, w0)
	return nil
}

// solveSelection solves the process-selection problem for the model over
// the currently free processes plus the given parent process, which is
// pinned to the model's parent coordinate.
func (h *Process) solveSelection(model *pmdl.Model, args []any, parentRank int) (*pmdl.Instance, mapper.Assignment, error) {
	avail := h.rt.freeRanks()
	if !slices.Contains(avail, parentRank) {
		avail = append([]int{parentRank}, avail...)
	}
	return h.rt.cfg.solve(h.rt.placement, h.speeds, avail, parentRank, model, args)
}

// solve is the one path from a model and its arguments to a selection:
// instantiate, then choose for the model's abstract processors the ranks of
// avail, the parent pinned to parentRank, that minimise the predicted
// execution time — by the mapper's Auto search: exhaustive for small
// problems, greedy seeding plus local search beyond. The problem is looked
// up in cfg.Selection first: its key — instance digest, the cluster's link
// costs with degradation, placement, speeds, avail, parent — needs no
// estimator, and whatever a Recon, a kill, a group creation or a degraded
// link changes is in it, so nothing is ever invalidated. A problem solved
// before, by this process's last Timeof or by another job's admission, is
// that solve, search statistics included; only a miss builds the task graph
// and hands the mapper what its engine exploits: an estimator session, the
// compute-only lower bound, the classes of interchangeable processes, and
// the machine-symmetry canonical key the heuristics memoise under.
func (cfg Config) solve(placement []int, speeds []float64, avail []int, parentRank int, model *pmdl.Model, args []any) (*pmdl.Instance, mapper.Assignment, error) {
	inst, err := model.Instantiate(args...)
	if err != nil {
		return nil, mapper.Assignment{}, err
	}
	links := cfg.Cluster.LinkView()
	var opts mapper.Options
	if cfg.Selection != nil {
		opts.Shared = cfg.Selection
		opts.Namespace = estimator.AppendNamespace(nil, inst, links)
		opts.MemoKey = estimator.AppendMemoKey(nil, opts.Namespace, speeds, placement)
	}
	pr := mapper.Problem{
		P:       inst.NumProcs,
		Avail:   avail,
		Fixed:   map[int]int{inst.Parent: parentRank},
		Weights: inst.CompVolume,
		SpeedOf: func(r int) float64 { return speeds[r] },
	}
	asg, err := mapper.SolveLazy(pr, opts, func(pr *mapper.Problem) error {
		est, err := estimator.NewWithLinks(inst, links, speeds, placement)
		if err != nil {
			return err
		}
		pr.Objective = est.Session().Timeof
		pr.LowerBound = est.LowerBound
		pr.Classes = est.ProcessClasses(pr.Avail)
		pr.CanonicalKey = est.AppendCanonicalKey
		return nil
	})
	return inst, asg, err
}

// PredictTimeof prices a prospective job without constructing a world or
// running any process: it solves the same selection problem HMPI_Timeof
// would solve inside a run, using the machines' nominal speeds (what a
// runtime knows before the first HMPI_Recon).
func PredictTimeof(cfg Config, model *pmdl.Model, args ...any) (float64, mapper.SearchStats, error) {
	return PredictTimeofAt(cfg, nil, model, args...)
}

// PredictTimeofAt is PredictTimeof under the given per-rank speed
// estimates; nil means the nominal speeds. Fed ReconSpeeds it returns,
// bit for bit, what HMPI_Timeof returns inside a run on the unloaded
// cluster, and with a cfg.Selection that run's Timeof is a hit.
func PredictTimeofAt(cfg Config, speeds []float64, model *pmdl.Model, args ...any) (float64, mapper.SearchStats, error) {
	placement, err := cfg.offlinePlacement()
	if err != nil {
		return 0, mapper.SearchStats{}, err
	}
	if speeds == nil {
		speeds = make([]float64, len(placement))
		for r, m := range placement {
			speeds[r] = cfg.Cluster.Machines[m].Speed
		}
	}
	if len(speeds) != len(placement) {
		return 0, mapper.SearchStats{}, fmt.Errorf("hmpi: %d speeds for %d processes", len(speeds), len(placement))
	}
	avail := make([]int, len(placement))
	for r := range avail {
		avail[r] = r
	}
	_, asg, err := cfg.solve(placement, speeds, avail, HostRank, model, args)
	return asg.Time, asg.Stats, err
}

// ReconSpeeds returns, per world rank, the speed estimate an HMPI_Recon
// whose benchmark is one kernel of kernelUnits would report on the
// unloaded cluster: 1/(kernelUnits/Machine.Speed), the expression Recon
// evaluates, in kernels per second — the unit every model's volumes are in.
func ReconSpeeds(cfg Config, kernelUnits float64) ([]float64, error) {
	placement, err := cfg.offlinePlacement()
	if err != nil {
		return nil, err
	}
	speeds := make([]float64, len(placement))
	for r, m := range placement {
		speeds[r] = 1 / (kernelUnits / cfg.Cluster.Machines[m].Speed)
	}
	return speeds, nil
}

// offlinePlacement validates the configuration for world-less use and
// returns the placement a runtime built from it would run under.
func (cfg Config) offlinePlacement() ([]int, error) {
	if cfg.Cluster == nil {
		return nil, fmt.Errorf("hmpi: nil cluster")
	}
	if err := cfg.Cluster.Validate(); err != nil {
		return nil, err
	}
	if cfg.Placement != nil {
		return cfg.Placement, nil
	}
	return mpi.OneProcessPerMachine(cfg.Cluster), nil
}

// Timeof implements HMPI_Timeof: it predicts the execution time of the
// modelled algorithm on the underlying network without running it, using
// the current speed estimates. It is a local operation any process may
// call; applications use it to tune algorithm parameters (such as the
// generalised block size of the matrix-multiplication algorithm) before
// creating a group.
func (h *Process) Timeof(model *pmdl.Model, args ...any) (float64, error) {
	_, asg, err := h.solveSelection(model, args, HostRank)
	return asg.Time, err
}

// GroupCreate implements HMPI_Group_create: it creates the group of
// processes that executes the algorithm described by the performance model
// faster than any other group of processes (up to the search heuristic).
//
// It is a collective operation: the parent (the host) and every free
// process must call it. Only the host's model and arguments are consulted
// — free processes may pass nil, mirroring the paper's programs, where
// only the host packs model parameters. Selected processes receive a
// Group whose Comm carries the algorithm's communication; non-selected
// processes receive nil and remain free. The parent's group reports the
// search work through Group.SearchStats.
func (h *Process) GroupCreate(model *pmdl.Model, args ...any) (*Group, error) {
	if !h.IsHost() && !h.IsFree() {
		return nil, fmt.Errorf("hmpi: process %d is neither host nor free; it must not call GroupCreate", h.Rank())
	}
	if !h.IsHost() {
		return h.receiveGroup(mpi.AnySource)
	}
	return h.selectGroup(trace.KindGroupCreate, model, args)
}

// GroupCreateChild creates a group whose parent is this process — which
// must already be busy (a member of an existing group), as the paper
// requires: "every newly created group has exactly one process shared with
// already existing groups". The caller supplies the model; all free
// processes participate by calling GroupCreate (with a nil model), exactly
// as for host-parented groups. Only one group creation may be in flight at
// a time.
func (h *Process) GroupCreateChild(model *pmdl.Model, args ...any) (*Group, error) {
	if h.IsFree() {
		return nil, fmt.Errorf("hmpi: process %d is free; a child group's parent must belong to an existing group", h.Rank())
	}
	return h.selectGroup(trace.KindGroupCreate, model, args)
}

// selectGroup is the parent side of every group creation — GroupCreate,
// GroupCreateChild, GroupRecreate and each attempt of RunResilient: it
// solves the selection over the free processes with this process pinned
// as the parent, distributes it, and records the lifecycle event of the
// given kind. When no group can be selected (no model, too few processes)
// every free process waiting in receiveGroup is released with an error.
func (h *Process) selectGroup(kind trace.Kind, model *pmdl.Model, args []any) (*Group, error) {
	if model == nil {
		h.AbortGroupCreate()
		return nil, fmt.Errorf("hmpi: the parent must supply a model to create a group")
	}
	t0, w0 := h.traceStart()
	inst, asg, err := h.solveSelection(model, args, h.Rank())
	if err != nil {
		h.AbortGroupCreate()
		return nil, err
	}
	g, err := h.distributeGroup(asg.Ranks, inst.Parent)
	if g != nil {
		g.stats = asg.Stats
		h.recordGroupEvent(kind, g.key, g.Size(), asg, t0, w0)
	}
	return g, err
}

// distributeGroup runs the parent side of the two-phase creation protocol
// over a precomputed selection. Sends to (and acknowledgements from)
// processes that fail mid-protocol are skipped: a selected process that
// dies during creation surfaces through the first operation on the group,
// not by deadlocking the creation itself.
func (h *Process) distributeGroup(ranks []int, parentIdx int) (*Group, error) {
	me := h.Rank()
	comm := h.CommWorld()
	key := h.rt.allocGroupKey()
	// Phase 1: distribute the decision (prefixed with the parent's
	// rank so recipients can acknowledge) to every free process.
	msg := make([]int64, 0, len(ranks)+3)
	msg = append(msg, int64(me), key, int64(parentIdx))
	for _, r := range ranks {
		msg = append(msg, int64(r))
	}
	payload := mpi.Int64Bytes(msg)
	recipients := h.rt.freeRanks()
	for _, r := range recipients {
		if r == me {
			continue
		}
		r := r
		_ = mpi.Catch(func() { comm.Send(r, tagGroupCreate, payload) })
	}
	// Phase 2: collect acknowledgements, then commit. Only after
	// the commit may any participant act on the new group, which
	// keeps successive creations ordered even across different
	// parent processes.
	for _, r := range recipients {
		if r == me {
			continue
		}
		r := r
		_ = mpi.Catch(func() { comm.Recv(r, tagGroupAck) })
	}
	for _, r := range recipients {
		if r == me {
			continue
		}
		r := r
		_ = mpi.Catch(func() { comm.Send(r, tagGroupCommit, nil) })
	}
	return h.buildGroup(ranks, parentIdx, key)
}

// The markers a creation message carries in place of the parent's rank:
// the pending creation is off (AbortGroupCreate), or the resilient region
// ended without the recipient (RunResilient).
const (
	abortMarker int64 = -1
	doneMarker  int64 = -2
)

// errRegionDone is receiveGroup's report of the done marker.
var errRegionDone = errors.New("hmpi: the resilient region completed")

// AbortGroupCreate tells every free process waiting in GroupCreate that the
// pending creation is off: their call returns an error. GroupCreate does it
// itself when the parent's selection fails (typically too few processes for
// the model); a parent whose own planning fails before it can call
// GroupCreate calls this in its place, so no free process is left waiting.
func (h *Process) AbortGroupCreate() { h.sendMarker(abortMarker, nil) }

// sendMarker sends a marker in place of a selection to every free process
// outside except.
func (h *Process) sendMarker(marker int64, except []int) {
	comm := h.CommWorld()
	payload := mpi.Int64Bytes([]int64{marker})
	for _, r := range excludeRanks(h.rt.freeRanks(), except) {
		if r == h.Rank() {
			continue
		}
		r := r
		_ = mpi.Catch(func() { comm.Send(r, tagGroupCreate, payload) })
	}
}

// receiveGroup runs the free-process side of the creation protocol for a
// creation by parent: the known parent in GroupRecreate and RunResilient,
// mpi.AnySource in GroupCreate, since any busy process may be spawning a
// child group. Waiting on a known parent fails, rather than hangs, when
// that parent dies.
func (h *Process) receiveGroup(parent int) (*Group, error) {
	me := h.Rank()
	comm := h.CommWorld()
	payload, _ := comm.Recv(parent, tagGroupCreate)
	msg := mpi.BytesInt64(payload)
	switch msg[0] {
	case abortMarker:
		return nil, fmt.Errorf("hmpi: group creation aborted by the parent")
	case doneMarker:
		return nil, errRegionDone
	}
	parentRank := int(msg[0])
	key := msg[1]
	parentIdx := int(msg[2])
	ranks := make([]int, len(msg)-3)
	for i, v := range msg[3:] {
		ranks[i] = int(v)
	}
	// Update the free flag BEFORE acknowledging: the parent's
	// commit (and hence any subsequent creation's free-set
	// snapshot, by any future parent) must observe this process as
	// busy if it was selected.
	if slices.Contains(ranks, me) {
		h.rt.setFree(me, false)
	}
	comm.Send(parentRank, tagGroupAck, nil)
	comm.Recv(parentRank, tagGroupCommit)
	return h.buildGroup(ranks, parentIdx, key)
}

// buildGroup materialises the local group handle from an agreed selection.
func (h *Process) buildGroup(ranks []int, parentIdx int, key int64) (*Group, error) {
	me := h.Rank()
	g := &Group{
		rt:        h.rt,
		ranks:     append([]int(nil), ranks...),
		key:       key,
		parentIdx: parentIdx,
		rank:      slices.Index(ranks, me),
	}
	if g.rank < 0 {
		return nil, nil // not selected; stays free
	}
	g.comm = mpi.NewCommFromGroup(h.proc, mpi.NewGroup(ranks), key)
	h.rt.setFree(me, false)
	h.groups = append(h.groups, key)
	return g, nil
}

// GroupFree implements HMPI_Group_free: a collective operation over the
// members of the group that dissolves it and returns its processes to the
// free pool. It is idempotent — freeing a nil group or one already freed is
// a no-op — and safe when members have failed mid-group: the dissolution
// barrier aborts instead of hanging, and the survivors are freed anyway.
func (h *Process) GroupFree(g *Group) error {
	if !h.IsMember(g) {
		return nil
	}
	h.release(g)
	// A failed member must not wedge the survivors in the barrier; the
	// failure (or a concurrent revocation) is tolerated, not propagated —
	// the group is gone either way.
	_ = mpi.Catch(func() { g.comm.Barrier() })
	h.leave(g)
	return nil
}

// release returns this member of g to the free pool. Every way out of a
// group calls it before the barrier or agreement that ends the group —
// GroupFree's barrier, dissolve's agreement, the agreement closing a
// resilient attempt — and that operation completes only after every
// member has entered it, so once any member (in particular the parent,
// which snapshots the free set in the next creation) leaves it, every
// member's flag is visible. The host never becomes free, and the parent
// stays busy: a child group's parent in its own group, a recreation's
// parent pinned into the next selection.
func (h *Process) release(g *Group) {
	if me := h.Rank(); me != HostRank && me != g.ranks[g.parentIdx] {
		h.rt.setFree(me, true)
	}
}

// leave is the one tail of every way out of a group (GroupFree, dissolve,
// the end of a resilient region): the handle stops being a member's, the
// process no longer counts the group, its communicator is released, and
// the trace records the dissolution.
func (h *Process) leave(g *Group) {
	g.rank = -1
	h.groups = slices.DeleteFunc(h.groups, func(k int64) bool { return k == g.key })
	g.comm.Free()
	h.recordGroupFree(g.key)
}

// Group is an HMPI group handle (HMPI_Group): the result of the
// performance-model-driven group creation. Each member holds its own
// handle; Rank is the member's rank within the group, which equals the
// index of the abstract processor of the performance model it executes.
type Group struct {
	rt        *Runtime
	ranks     []int // group rank -> world rank
	key       int64
	parentIdx int
	rank      int // this process's group rank, -1 once it left the group
	comm      *mpi.Comm
	// stats is the selection-search work behind this group, recorded on
	// the parent (the process that ran the search); members hold zeros.
	stats mapper.SearchStats
}

// Rank implements HMPI_Group_rank: this process's rank in the group.
func (g *Group) Rank() int { return g.rank }

// Size implements HMPI_Group_size.
func (g *Group) Size() int { return len(g.ranks) }

// ParentRank returns the group rank of the parent process.
func (g *Group) ParentRank() int { return g.parentIdx }

// WorldRanks returns the world ranks of the members in group-rank order:
// the selection HMPI made.
func (g *Group) WorldRanks() []int { return append([]int(nil), g.ranks...) }

// Comm implements HMPI_Get_comm: the MPI communicator whose group is this
// HMPI group. Applications hand it to standard MPI operations to perform
// the algorithm's computations and communications. It is a local
// operation.
func (g *Group) Comm() *mpi.Comm { return g.comm }
