package em3d

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/mpi"
	"repro/internal/pmdl"
)

// Field snapshots returned by runs, for verification: E values per body.
type Field [][]float64

// snapshotE copies the E values of all bodies.
func (pr *Problem) snapshotE() Field {
	out := make(Field, len(pr.Bodies))
	for i, b := range pr.Bodies {
		out[i] = append([]float64(nil), b.E...)
	}
	return out
}

// Clone deep-copies the problem so independent runs start from the same
// initial field values.
func (pr *Problem) Clone() *Problem {
	cp := &Problem{K: pr.K, FlopsPerNode: pr.FlopsPerNode, Light: pr.Light, DepH: pr.DepH, DepE: pr.DepE}
	for _, b := range pr.Bodies {
		cp.Bodies = append(cp.Bodies, &Body{
			E: append([]float64(nil), b.E...), H: append([]float64(nil), b.H...),
			EDeps: b.EDeps, HDeps: b.HDeps,
		})
	}
	return cp
}

// lookupH resolves an H-node dependency of body `me`.
func (pr *Problem) lookupH(me int, ref NodeRef, remote map[int][]float64) float64 {
	if ref.Body < 0 {
		return pr.Bodies[me].H[ref.Index]
	}
	vals, ok := remote[ref.Body]
	if !ok {
		return pr.Bodies[ref.Body].H[ref.Index] // serial path
	}
	return vals[ref.Index]
}

func (pr *Problem) lookupE(me int, ref NodeRef, remote map[int][]float64) float64 {
	if ref.Body < 0 {
		return pr.Bodies[me].E[ref.Index]
	}
	vals, ok := remote[ref.Body]
	if !ok {
		return pr.Bodies[ref.Body].E[ref.Index]
	}
	return vals[ref.Index]
}

// computeE updates the E values of body `me` from (local and remote) H
// values. remote maps neighbour body index to a dense copy of that body's
// relevant H array; nil remote reads neighbour bodies directly (serial).
func (pr *Problem) computeE(me int, remote map[int][]float64) {
	b := pr.Bodies[me]
	for n := range b.E {
		sum := 0.0
		for _, ref := range b.EDeps[n] {
			sum += pr.lookupH(me, ref, remote)
		}
		b.E[n] = 0.9*b.E[n] + 0.1*sum/float64(len(b.EDeps[n]))
	}
}

// computeH updates the H values of body `me` from E values.
func (pr *Problem) computeH(me int, remote map[int][]float64) {
	b := pr.Bodies[me]
	for n := range b.H {
		sum := 0.0
		for _, ref := range b.HDeps[n] {
			sum += pr.lookupE(me, ref, remote)
		}
		b.H[n] = 0.9*b.H[n] + 0.1*sum/float64(len(b.HDeps[n]))
	}
}

// SerialRun is the reference implementation: it updates all subbodies in
// sequence for the given number of iterations and returns the final E
// field. The update order matches the parallel algorithm (all E phases
// read the previous H values), so results agree bit-for-bit.
func (pr *Problem) SerialRun(iters int) Field {
	for it := 0; it < iters; it++ {
		for me := range pr.Bodies {
			pr.computeE(me, nil)
		}
		for me := range pr.Bodies {
			pr.computeH(me, nil)
		}
	}
	return pr.snapshotE()
}

// RunOptions tune a parallel run.
type RunOptions struct {
	// Iters is the number of simulation iterations.
	Iters int
	// RealMath performs the actual floating-point updates (for
	// verification at small sizes). When false, only the simulated
	// computation time is charged; transferred buffers keep their
	// correct sizes.
	RealMath bool
	// Overlap switches the halo exchange to the post-early/compute/wait
	// schedule: receives are posted before the sends, the interior nodes
	// (those reading no remote values) are computed while the boundary
	// values travel, and only the boundary nodes wait for the exchange.
	// Field results are bit-identical to the blocking schedule; only the
	// simulated time changes.
	Overlap bool
}

// tags for the two exchange phases.
const (
	tagHBoundary = 1
	tagEBoundary = 2
)

// RunParallel executes the parallel EM3D algorithm on the given
// communicator: communicator rank i computes subbody i. The communicator
// size must equal the number of subbodies. This one function serves both
// the plain-MPI baseline and the HMPI version — exactly as in the paper,
// where the computational code of the two programs is identical and only
// group creation differs.
func RunParallel(comm *mpi.Comm, pr *Problem, opts RunOptions) error {
	p := len(pr.Bodies)
	if comm.Size() != p {
		return fmt.Errorf("em3d: %d processes for %d subbodies", comm.Size(), p)
	}
	if opts.RealMath && pr.Light {
		return fmt.Errorf("em3d: a Light problem has no dependency lists; real math impossible")
	}
	me := comm.Rank()
	body := pr.Bodies[me]
	if opts.Overlap {
		return runOverlap(comm, pr, opts)
	}

	for it := 0; it < opts.Iters; it++ {
		// Phase 1: gather remote H boundary values, then compute E.
		remoteH, err := exchangeBoundary(comm, pr, me, tagHBoundary, pr.DepH, func(j int) []float64 { return pr.Bodies[j].H })
		if err != nil {
			return err
		}
		comm.Proc().Compute(pr.KernelUnits(len(body.E)))
		if opts.RealMath {
			pr.computeE(me, remoteH)
		}
		// Phase 2: gather remote E boundary values, then compute H.
		remoteE, err := exchangeBoundary(comm, pr, me, tagEBoundary, pr.DepE, func(j int) []float64 { return pr.Bodies[j].E })
		if err != nil {
			return err
		}
		comm.Proc().Compute(pr.KernelUnits(len(body.H)))
		if opts.RealMath {
			pr.computeH(me, remoteE)
		}
	}
	return nil
}

// boundarySplit counts, for one dependency list, the nodes that read any
// remote value (boundary) and those that read only local ones (interior):
// the interior update can run while the halo exchange is in flight.
// Boundary references exist even on Light problems (only the local lists
// are skipped there), so the split is available on timing-only runs too.
func boundarySplit(deps [][]NodeRef) (interior, boundary int) {
	for _, refs := range deps {
		remote := false
		for _, ref := range refs {
			if ref.Body >= 0 {
				remote = true
				break
			}
		}
		if remote {
			boundary++
		} else {
			interior++
		}
	}
	return interior, boundary
}

// runOverlap is the overlapped schedule of RunParallel: per phase it
// posts the halo receives first, then the sends, computes the interior
// nodes while the boundary values travel, waits for the receives, and
// finishes with the boundary nodes. The send requests complete at the
// end of the phase, after the compute they were hidden behind.
func runOverlap(comm *mpi.Comm, pr *Problem, opts RunOptions) error {
	me := comm.Rank()
	body := pr.Bodies[me]
	proc := comm.Proc()
	intE, bndE := boundarySplit(body.EDeps)
	intH, bndH := boundarySplit(body.HDeps)
	for it := 0; it < opts.Iters; it++ {
		// Phase 1: exchange H boundaries behind the interior E update.
		ex := postBoundary(comm, pr, me, tagHBoundary, pr.DepH, func(j int) []float64 { return pr.Bodies[j].H })
		proc.Compute(pr.KernelUnits(intE))
		remoteH, err := ex.wait(pr, me, pr.DepH, func(j int) []float64 { return pr.Bodies[j].H })
		if err != nil {
			return err
		}
		proc.Compute(pr.KernelUnits(bndE))
		if opts.RealMath {
			pr.computeE(me, remoteH)
		}
		mpi.WaitAll(ex.sends)
		// Phase 2: exchange E boundaries behind the interior H update.
		ex = postBoundary(comm, pr, me, tagEBoundary, pr.DepE, func(j int) []float64 { return pr.Bodies[j].E })
		proc.Compute(pr.KernelUnits(intH))
		remoteE, err := ex.wait(pr, me, pr.DepE, func(j int) []float64 { return pr.Bodies[j].E })
		if err != nil {
			return err
		}
		proc.Compute(pr.KernelUnits(bndH))
		if opts.RealMath {
			pr.computeH(me, remoteE)
		}
		mpi.WaitAll(ex.sends)
	}
	return nil
}

// boundaryExchange is one in-flight halo exchange: the receive requests
// (with the body each came from) and the send requests, completed
// separately so sends can ride behind the whole phase.
type boundaryExchange struct {
	recvs   []*mpi.Request
	recvSrc []int
	sends   []*mpi.Request
}

// postBoundary starts an overlapped halo exchange: the receives are
// posted before the sends (post-early, so arriving values land in the
// already-posted requests), and the call returns without blocking.
func postBoundary(comm *mpi.Comm, pr *Problem, me, tag int, dep [][][]int, field func(int) []float64) *boundaryExchange {
	p := len(pr.Bodies)
	ex := &boundaryExchange{}
	for j := 0; j < p; j++ {
		if j == me || len(dep[me][j]) == 0 {
			continue
		}
		ex.recvs = append(ex.recvs, comm.Irecv(j, tag))
		ex.recvSrc = append(ex.recvSrc, j)
	}
	mine := field(me)
	for i := 0; i < p; i++ {
		if i == me || len(dep[i][me]) == 0 {
			continue
		}
		vals := make([]float64, len(dep[i][me]))
		for k, idx := range dep[i][me] {
			vals[k] = mine[idx]
		}
		ex.sends = append(ex.sends, comm.IsendOwned(i, tag, mpi.Float64Bytes(vals)))
	}
	return ex
}

// wait completes the receive half of the exchange and scatters the
// payloads into dense per-body arrays, like exchangeBoundary's receive
// loop. The send requests stay pending for the caller.
func (ex *boundaryExchange) wait(pr *Problem, me int, dep [][][]int, field func(int) []float64) (map[int][]float64, error) {
	remote := make(map[int][]float64)
	for k, r := range ex.recvs {
		data, _ := r.Wait()
		j := ex.recvSrc[k]
		vals := mpi.BytesFloat64(data)
		if len(vals) != len(dep[me][j]) {
			return nil, fmt.Errorf("em3d: body %d received %d values from %d, want %d",
				me, len(vals), j, len(dep[me][j]))
		}
		dense := make([]float64, len(field(j)))
		for kk, idx := range dep[me][j] {
			dense[idx] = vals[kk]
		}
		remote[j] = dense
	}
	return remote, nil
}

// exchangeBoundary sends the boundary values others need from subbody
// `me` and receives the values `me` needs, returning them as sparse dense
// arrays indexed by the owning body. dep[i][j] lists indices of body j's
// field that body i reads; field(j) returns body j's current field values.
func exchangeBoundary(comm *mpi.Comm, pr *Problem, me, tag int, dep [][][]int, field func(int) []float64) (map[int][]float64, error) {
	p := len(pr.Bodies)
	// Send to every body i that needs our values.
	var reqs []*mpi.Request
	for i := 0; i < p; i++ {
		if i == me || len(dep[i][me]) == 0 {
			continue
		}
		vals := make([]float64, len(dep[i][me]))
		mine := field(me)
		for k, idx := range dep[i][me] {
			vals[k] = mine[idx]
		}
		reqs = append(reqs, comm.Isend(i, tag, mpi.Float64Bytes(vals)))
	}
	// Receive what we need. The received values are scattered back into
	// dense arrays the compute phase can index by original node index.
	remote := make(map[int][]float64)
	for j := 0; j < p; j++ {
		if j == me || len(dep[me][j]) == 0 {
			continue
		}
		data, _ := comm.Recv(j, tag)
		vals := mpi.BytesFloat64(data)
		if len(vals) != len(dep[me][j]) {
			return nil, fmt.Errorf("em3d: body %d received %d values from %d, want %d",
				me, len(vals), j, len(dep[me][j]))
		}
		dense := make([]float64, len(field(j)))
		for k, idx := range dep[me][j] {
			dense[idx] = vals[k]
		}
		remote[j] = dense
	}
	mpi.WaitAll(reqs)
	return remote, nil
}

// Program is EM3D as the driver runs it (apps.Program): the paper's Figure
// 5. Its one plan is the problem itself — the decomposition is fixed, only
// the group selection follows the speeds — so nothing is shared at run
// time: every process holds the problem and works on its own clone.
type Program struct {
	Problem *Problem
	Opts    RunOptions
	// Field is the final E field, gathered on communicator rank 0 after
	// the timed region (RealMath runs only).
	Field Field
}

func (p *Program) Name() string       { return "em3d" }
func (p *Program) Model() *pmdl.Model { return Model() }

// KernelUnits: the benchmark is the serial EM3D kernel over K nodes, truly
// representative of the application.
func (p *Program) KernelUnits() float64 { return p.Problem.KernelUnits(p.Problem.K) }

// Scale: the model describes one iteration.
func (p *Program) Scale() float64 { return float64(p.Opts.Iters) }

func (p *Program) Plans([]float64) ([]apps.Plan, error) { return []apps.Plan{p.Problem}, nil }
func (p *Program) Baseline() (apps.Plan, int)           { return p.Problem, len(p.Problem.Bodies) }
func (p *Program) Share(*mpi.Comm, apps.Plan) apps.Plan { return p.Problem }

// Run starts from a fresh clone of the replicated initial field, so
// independent runs — and the restarted attempts of a self-healing one —
// never see a previous run's values.
func (p *Program) Run(comm *mpi.Comm, _ apps.Plan) (func(), error) {
	local := p.Problem.Clone()
	if err := RunParallel(comm, local, p.Opts); err != nil || !p.Opts.RealMath {
		return nil, err
	}
	return func() {
		if f := gatherField(comm, local); f != nil {
			p.Field = f
		}
	}, nil
}

// gatherField collects the final E field on the communicator's rank 0.
func gatherField(comm *mpi.Comm, pr *Problem) Field {
	mine := pr.Bodies[comm.Rank()].E
	all := comm.Gather(0, mpi.Float64Bytes(mine))
	if all == nil {
		return nil
	}
	out := make(Field, len(all))
	for i, b := range all {
		out[i] = mpi.BytesFloat64(b)
	}
	return out
}
