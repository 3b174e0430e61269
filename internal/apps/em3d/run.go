package em3d

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

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

// Clone copies the problem's field values, so independent runs start from
// the same initial field; the dependency lists, never written, are shared.
func (pr *Problem) Clone() *Problem {
	cp := *pr
	cp.Bodies = make([]*Body, len(pr.Bodies))
	for i, b := range pr.Bodies {
		cp.Bodies[i] = b.clone()
	}
	return &cp
}

func (b *Body) clone() *Body {
	cp := *b
	cp.E, cp.H = slices.Clone(b.E), slices.Clone(b.H)
	return &cp
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
// group creation differs. Without RealMath the problem is only read.
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
	haloH := newHalo(comm, pr, opts, tagHBoundary, pr.DepH, func(b *Body) []float64 { return b.H })
	haloE := newHalo(comm, pr, opts, tagEBoundary, pr.DepE, func(b *Body) []float64 { return b.E })
	for it := 0; it < opts.Iters; it++ {
		// Phase 1: gather remote H boundary values and compute E.
		if err := haloH.exchange(len(body.E), len(body.EBound)); err != nil {
			return err
		}
		if opts.RealMath {
			pr.computeE(me, haloH.remote)
		}
		// Phase 2: gather remote E boundary values and compute H.
		if err := haloE.exchange(len(body.H), len(body.HBound)); err != nil {
			return err
		}
		if opts.RealMath {
			pr.computeH(me, haloE.remote)
		}
	}
	return nil
}

// halo is one rank's boundary exchange of one field (H or E), built once
// per run and reused every iteration. dep[i][j] lists the indices of body
// j's field that body i reads. What a run allocates per exchange is the
// wire buffers it sends: nothing here is sized by a body's node count
// unless RealMath needs the values.
type halo struct {
	comm    *mpi.Comm
	pr      *Problem
	me, tag int
	dep     [][][]int
	mine    []float64 // this rank's field, packed as it stands at each exchange
	overlap bool
	// from are the bodies this one reads values of, to those that read
	// its own, both ascending.
	from, to []int
	// remote maps a body in from to a dense copy of its field holding the
	// received boundary values (RealMath only). Every exchange overwrites
	// exactly the indices the update reads, so the arrays are reused.
	remote       map[int][]float64
	recvs, sends []*mpi.Request
}

func newHalo(comm *mpi.Comm, pr *Problem, opts RunOptions, tag int, dep [][][]int, field func(*Body) []float64) *halo {
	h := &halo{comm: comm, pr: pr, me: comm.Rank(), tag: tag, dep: dep, overlap: opts.Overlap}
	h.mine = field(pr.Bodies[h.me])
	if opts.RealMath {
		h.remote = make(map[int][]float64)
	}
	for j, b := range pr.Bodies {
		if j == h.me {
			continue
		}
		if len(dep[h.me][j]) > 0 {
			h.from = append(h.from, j)
			if opts.RealMath {
				h.remote[j] = make([]float64, len(field(b)))
			}
		}
		if len(dep[j][h.me]) > 0 {
			h.to = append(h.to, j)
		}
	}
	return h
}

// exchange runs one phase: it sends the boundary values the neighbours
// read, receives the ones this body reads, and charges the update of its
// nodes, `boundary` of which read a remote value. The blocking schedule
// completes the whole exchange and then computes. The overlapped one
// posts the receives before the sends (post-early, so arriving values
// land in already-posted requests), computes the interior nodes while the
// values travel, waits for the receives, computes the boundary nodes, and
// completes the sends last, after the compute they were hidden behind.
func (h *halo) exchange(nodes, boundary int) error {
	proc := h.comm.Proc()
	h.recvs, h.sends = h.recvs[:0], h.sends[:0]
	if h.overlap {
		for _, j := range h.from {
			h.recvs = append(h.recvs, h.comm.Irecv(j, h.tag))
		}
	}
	for _, i := range h.to {
		// Packed straight into the buffer the message path takes over.
		idx := h.dep[i][h.me]
		buf := make([]byte, 8*len(idx))
		for k, n := range idx {
			binary.LittleEndian.PutUint64(buf[8*k:], math.Float64bits(h.mine[n]))
		}
		h.sends = append(h.sends, h.comm.IsendOwned(i, h.tag, buf))
	}
	if h.overlap {
		proc.Compute(h.pr.KernelUnits(nodes - boundary))
	}
	for k, j := range h.from {
		var data []byte
		if h.overlap {
			data, _ = h.recvs[k].Wait()
		} else {
			data, _ = h.comm.Recv(j, h.tag)
		}
		idx := h.dep[h.me][j]
		if len(data) != 8*len(idx) {
			return fmt.Errorf("em3d: body %d received %d bytes from %d, want %d",
				h.me, len(data), j, 8*len(idx))
		}
		if dense := h.remote[j]; dense != nil {
			for v, n := range idx {
				dense[n] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*v:]))
			}
		}
	}
	if h.overlap {
		proc.Compute(h.pr.KernelUnits(boundary))
		mpi.WaitAll(h.sends)
	} else {
		mpi.WaitAll(h.sends)
		proc.Compute(h.pr.KernelUnits(nodes))
	}
	return nil
}

// Program is EM3D as the driver runs it (apps.Program): the paper's Figure
// 5. Its one plan is the problem itself — the decomposition is fixed, only
// the group selection follows the speeds — so nothing is shared at run
// time: every process holds the problem, reads it, and writes only to its
// own copy of the subbody it updates.
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

// Run never writes to the problem, so independent runs — and the restarted
// attempts of a self-healing one — all start from its initial field. A
// timing-only run only reads it; a RealMath run updates a copy of its own
// subbody, the one body a rank writes.
func (p *Program) Run(comm *mpi.Comm, _ apps.Plan) (func(), error) {
	if !p.Opts.RealMath {
		return nil, RunParallel(comm, p.Problem, p.Opts)
	}
	local := *p.Problem
	local.Bodies = slices.Clone(p.Problem.Bodies)
	local.Bodies[comm.Rank()] = local.Bodies[comm.Rank()].clone()
	if err := RunParallel(comm, &local, p.Opts); err != nil {
		return nil, err
	}
	return func() {
		if f := gatherField(comm, &local); f != nil {
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
