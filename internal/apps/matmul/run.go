package matmul

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/hmpi"
	"repro/internal/mpi"
	"repro/internal/partition"
	"repro/internal/pmdl"
)

// Message tags of the algorithm's two communication phases.
const (
	tagA = 1
	tagB = 2
)

// RunOptions tune a parallel run.
type RunOptions struct {
	// CollectC gathers the result matrix on comm rank 0 (RealMath only).
	CollectC bool
	// Overlap pipelines the algorithm: the pivot transfers of step k+1
	// are posted (receives first) before step k's update runs, so the
	// next step's communication hides behind the current step's compute.
	// Results are bit-identical to the blocking schedule.
	Overlap bool
}

// blockKey addresses one r×r block of a matrix.
type blockKey struct{ bi, bj int }

// procState is the per-process working storage of the parallel algorithm.
type procState struct {
	pr   *Problem
	dist *Dist
	me   int // comm rank
	mi   int // my grid row
	mj   int // my grid column

	a, b, c map[blockKey][]float64 // owned blocks (RealMath)

	owned int // number of owned C blocks
}

// myRows returns my rectangle's block-row residues.
func (st *procState) myRows() (lo, hi int) {
	return st.dist.RowStart[st.mi][st.mj], st.dist.RowStart[st.mi][st.mj] + st.dist.H[st.mi][st.mj]
}

func (st *procState) myCols() (lo, hi int) {
	return st.dist.ColStart[st.mj], st.dist.ColStart[st.mj] + st.dist.W[st.mj]
}

// extractBlock copies block (bi,bj) out of a dense row-major matrix.
func extractBlock(m []float64, n, r, bi, bj int) []float64 {
	dim := n * r
	out := make([]float64, r*r)
	for er := 0; er < r; er++ {
		copy(out[er*r:(er+1)*r], m[(bi*r+er)*dim+bj*r:(bi*r+er)*dim+bj*r+r])
	}
	return out
}

// mulAdd performs c += a×b on r×r blocks: the rMxM kernel.
func mulAdd(c, a, b []float64, r int) {
	for i := 0; i < r; i++ {
		for k := 0; k < r; k++ {
			av := a[i*r+k]
			if av == 0 {
				continue
			}
			ci := c[i*r:]
			bk := b[k*r:]
			for j := 0; j < r; j++ {
				ci[j] += av * bk[j]
			}
		}
	}
}

// newProcState prepares a process's storage: it extracts the blocks of A
// and B it owns and zero C accumulators.
func newProcState(pr *Problem, dist *Dist, rank int) *procState {
	st := &procState{pr: pr, dist: dist, me: rank}
	st.mi, st.mj = dist.GridOf(rank)
	st.owned = dist.OwnedBlocks(st.mi, st.mj)
	if pr.RealMath {
		st.a = make(map[blockKey][]float64)
		st.b = make(map[blockKey][]float64)
		st.c = make(map[blockKey][]float64)
		for bi := 0; bi < pr.N; bi++ {
			for bj := 0; bj < pr.N; bj++ {
				oi, oj := dist.GlobalOwner(bi, bj)
				if oi == st.mi && oj == st.mj {
					k := blockKey{bi, bj}
					st.a[k] = extractBlock(pr.A, pr.N, pr.R, bi, bj)
					st.b[k] = extractBlock(pr.B, pr.N, pr.R, bi, bj)
					st.c[k] = make([]float64, pr.R*pr.R)
				}
			}
		}
	}
	return st
}

// payload serialises a block for transfer (or returns a charge-only one
// of its size).
func (st *procState) payload(blk []float64) []byte {
	if !st.pr.RealMath {
		return apps.ChargeOnly(st.pr.R * st.pr.R * 8)
	}
	return mpi.Float64Bytes(blk)
}

// RunParallel executes the block-cyclic multiplication on the given
// communicator, whose size must be M². Communicator rank i*M+j acts as
// grid processor (i,j); the distribution decides who owns and sends what.
// The identical code serves the homogeneous baseline and the HMPI version.
// With RealMath and CollectC it returns the assembled C on comm rank 0.
func RunParallel(comm *mpi.Comm, pr *Problem, dist *Dist, opts RunOptions) ([]float64, error) {
	if comm.Size() != pr.M*pr.M {
		return nil, fmt.Errorf("matmul: %d processes for a %dx%d grid", comm.Size(), pr.M, pr.M)
	}
	if dist.N != pr.N || dist.R != pr.R {
		return nil, fmt.Errorf("matmul: distribution built for n=%d r=%d, problem has n=%d r=%d",
			dist.N, dist.R, pr.N, pr.R)
	}
	st := newProcState(pr, dist, comm.Rank())
	n := pr.N
	unitsPerStep := pr.KernelUnits(float64(st.owned))
	// At most two steps are in flight — the pipelined schedule posts step
	// k+1 before step k's update — so a run keeps two step states.
	var steps [2]stepState
	if pr.RealMath {
		for i := range steps {
			steps[i].a, steps[i].b = map[int][]float64{}, map[int][]float64{}
		}
	}
	if opts.Overlap {
		st.post(comm, &steps[0], 0)
	}
	for k := 0; k < n; k++ {
		s := &steps[k%2]
		if !opts.Overlap {
			st.exchange(comm, s, k)
		} else if k+1 < n {
			st.post(comm, &steps[(k+1)%2], k+1)
		}
		s.complete()

		// ---- Update: every owned C block gains a[bi][k]*b[k][bj]. ----
		comm.Proc().Compute(unitsPerStep)
		if pr.RealMath {
			for key, cblk := range st.c {
				ablk, ok := s.a[key.bi]
				if !ok {
					return nil, fmt.Errorf("matmul: step %d: process %d missing A block row %d", k, st.me, key.bi)
				}
				bblk, ok := s.b[key.bj]
				if !ok {
					return nil, fmt.Errorf("matmul: step %d: process %d missing B block col %d", k, st.me, key.bj)
				}
				mulAdd(cblk, ablk, bblk, pr.R)
			}
		}
		mpi.WaitAll(s.sends)
		s.reset()
	}

	if pr.RealMath && opts.CollectC {
		return collectC(comm, pr, dist, st)
	}
	return nil, nil
}

// pivots walks step k's pivot blocks in the per-peer order both schedules
// move them in: the A column (tagA, by block row), then the B row (tagB,
// by block column). On the owning column (row) it calls send once per
// block and destination, then own once per block; everywhere else it calls
// recv once per block, naming the sender. A nil callback is skipped.
func (st *procState) pivots(k int, own func(tag, idx int, blk []float64), send func(dst, tag int, blk []float64), recv func(src, tag, idx int)) {
	pr, dist := st.pr, st.dist
	n, l := pr.N, dist.L()
	krho := k % l

	// The pivot column of A moves horizontally: the owner of each of my
	// row residues in column jStar sends it to every other column.
	jStar := dist.ColOwner(krho)
	rlo, rhi := st.myRows()
	for rho := rlo; rho < rhi; rho++ {
		src := dist.RankOf(dist.RowOwnerInColumn(rho, jStar), jStar)
		for bi := rho; bi < n; bi += l {
			if st.mj != jStar {
				if recv != nil {
					recv(src, tagA, bi)
				}
				continue
			}
			blk := st.a[blockKey{bi, k}]
			for j := 0; j < pr.M && send != nil; j++ {
				if j != jStar {
					send(dist.RankOf(dist.RowOwnerInColumn(rho, j), j), tagA, blk)
				}
			}
			if own != nil {
				own(tagA, bi, blk)
			}
		}
	}

	// The pivot row of B moves vertically within my column.
	iStar := dist.RowOwnerInColumn(krho, st.mj)
	clo, chi := st.myCols()
	for sigma := clo; sigma < chi; sigma++ {
		for bj := sigma; bj < n; bj += l {
			if st.mi != iStar {
				if recv != nil {
					recv(dist.RankOf(iStar, st.mj), tagB, bj)
				}
				continue
			}
			blk := st.b[blockKey{k, bj}]
			for i := 0; i < pr.M && send != nil; i++ {
				if i != iStar {
					send(dist.RankOf(i, st.mj), tagB, blk)
				}
			}
			if own != nil {
				own(tagB, bj, blk)
			}
		}
	}
}

// exchange is step k of the blocking schedule: it sends the pivot blocks it
// owns, fire and forget, and receives the others in turn.
func (st *procState) exchange(comm *mpi.Comm, s *stepState, k int) {
	st.pivots(k, s.keep, func(dst, tag int, blk []float64) {
		comm.IsendOwned(dst, tag, st.payload(blk))
	}, func(src, tag, idx int) {
		data, _ := comm.Recv(src, tag)
		s.received(tag, idx, data)
	})
}

// post starts step k of the pipelined schedule without blocking: every
// receive is posted before any send (post-early), in the blocking
// schedule's per-peer order, so the progress engine assigns arriving
// blocks to steps by posting order even when two steps are in flight.
func (st *procState) post(comm *mpi.Comm, s *stepState, k int) {
	st.pivots(k, nil, nil, func(src, tag, idx int) {
		s.recvs = append(s.recvs, pendingRecv{comm.Irecv(src, tag), tag, idx})
	})
	st.pivots(k, s.keep, func(dst, tag int, blk []float64) {
		s.sends = append(s.sends, comm.IsendOwned(dst, tag, st.payload(blk)))
	}, nil)
}

// stepState is one step's pivot exchange: its blocks filed by block row
// (A) and block column (B) for the update (RealMath only), and the
// pipelined schedule's receives and sends still in flight.
type stepState struct {
	a, b  map[int][]float64
	recvs []pendingRecv
	sends []*mpi.Request
}

// pendingRecv is a posted pivot receive and the block it carries.
type pendingRecv struct {
	req      *mpi.Request
	tag, idx int
}

// keep files a pivot block under its block row (tagA) or column (tagB). A
// timing-only run has no block maps and keeps nothing.
func (s *stepState) keep(tag, idx int, blk []float64) {
	switch {
	case s.a == nil:
	case tag == tagA:
		s.a[idx] = blk
	default:
		s.b[idx] = blk
	}
}

// received files a received pivot block; a timing-only run decodes none.
func (s *stepState) received(tag, idx int, data []byte) {
	if s.a != nil {
		s.keep(tag, idx, mpi.BytesFloat64(data))
	}
}

// complete waits for the step's posted receives, in posting order, and
// files their blocks. The blocking schedule posts none.
func (s *stepState) complete() {
	for _, r := range s.recvs {
		data, _ := r.req.Wait()
		s.received(r.tag, r.idx, data)
	}
}

// reset empties the step state for the step after next, keeping its
// storage.
func (s *stepState) reset() {
	clear(s.a)
	clear(s.b)
	clear(s.recvs)
	clear(s.sends)
	s.recvs, s.sends = s.recvs[:0], s.sends[:0]
}

// collectC gathers the distributed C on comm rank 0 and assembles the
// dense matrix.
func collectC(comm *mpi.Comm, pr *Problem, dist *Dist, st *procState) ([]float64, error) {
	// Serialise owned blocks in deterministic (bi,bj) order.
	var mine []float64
	for bi := 0; bi < pr.N; bi++ {
		for bj := 0; bj < pr.N; bj++ {
			if blk, ok := st.c[blockKey{bi, bj}]; ok {
				mine = append(mine, float64(bi), float64(bj))
				mine = append(mine, blk...)
			}
		}
	}
	parts := comm.Gather(0, mpi.Float64Bytes(mine))
	if parts == nil {
		return nil, nil
	}
	dim := pr.N * pr.R
	out := make([]float64, dim*dim)
	stride := 2 + pr.R*pr.R
	for _, part := range parts {
		vals := mpi.BytesFloat64(part)
		if len(vals)%stride != 0 {
			return nil, fmt.Errorf("matmul: malformed C fragment of %d values", len(vals))
		}
		for off := 0; off < len(vals); off += stride {
			bi, bj := int(vals[off]), int(vals[off+1])
			blk := vals[off+2 : off+stride]
			for er := 0; er < pr.R; er++ {
				copy(out[(bi*pr.R+er)*dim+bj*pr.R:(bi*pr.R+er)*dim+bj*pr.R+pr.R], blk[er*pr.R:(er+1)*pr.R])
			}
		}
	}
	return out, nil
}

// Program is the matrix multiplication as the driver runs it
// (apps.Program): the paper's Figure 8. A plan is a distribution (*Dist);
// there is one candidate per generalised block size in Ls, and HMPI_Timeof
// picks among them (Figure 8's block-size loop).
type Program struct {
	Problem *Problem
	// Ls lists the candidate generalised block sizes.
	Ls   []int
	Opts RunOptions
	// Dist is the distribution the run used and C the gathered result
	// (RealMath with CollectC only), both set on communicator rank 0.
	Dist *Dist
	C    []float64
}

func (p *Program) Name() string       { return "matmul" }
func (p *Program) Model() *pmdl.Model { return Model() }

// KernelUnits: the rMxM kernel, one r×r block update.
func (p *Program) KernelUnits() float64 { return p.Problem.KernelUnits(1) }

// Scale: the model describes the whole multiplication.
func (p *Program) Scale() float64 { return 1 }

// Plans arranges the speeds into the grid — a process of speed zero (a
// failed one) takes no cell — and builds the heterogeneous distribution for
// every candidate block size.
func (p *Program) Plans(speeds []float64) ([]apps.Plan, error) {
	pr := p.Problem
	grid, _, err := ArrangeGrid(speeds, hmpi.HostRank, pr.M)
	if err != nil {
		return nil, err
	}
	plans := make([]apps.Plan, len(p.Ls))
	for i, l := range p.Ls {
		if plans[i], err = NewHetero(grid, l, pr.N, pr.R); err != nil {
			return nil, err
		}
	}
	return plans, nil
}

// Baseline is the homogeneous 2-D block-cyclic distribution on the first
// M² processes.
func (p *Program) Baseline() (apps.Plan, int) {
	pr := p.Problem
	return NewHomogeneous(pr.M, pr.N, pr.R), pr.M * pr.M
}

// Share broadcasts the host's distribution as (l, w, flattened heights),
// from which every member rebuilds it identically.
func (p *Program) Share(comm *mpi.Comm, plan apps.Plan) apps.Plan {
	var payload []byte
	if d, ok := plan.(*Dist); ok {
		vals := append([]int{d.L()}, d.W...)
		for _, row := range d.H {
			vals = append(vals, row...)
		}
		payload = mpi.IntsBytes(vals)
	}
	payload = comm.Bcast(0, payload)
	if comm.Rank() == 0 {
		return plan
	}
	vals, m := mpi.BytesInts(payload), p.Problem.M
	hs := make([][]int, m)
	for i := range hs {
		hs[i] = vals[1+m+i*m : 1+m+(i+1)*m]
	}
	b, err := partition.FromParts(vals[0], vals[1:1+m], hs)
	if err != nil {
		panic(fmt.Sprintf("matmul: broadcast distribution invalid: %v", err))
	}
	return &Dist{Block2D: b, N: p.Problem.N, R: p.Problem.R}
}

func (p *Program) Run(comm *mpi.Comm, plan apps.Plan) (func(), error) {
	dist := plan.(*Dist)
	c, err := RunParallel(comm, p.Problem, dist, p.Opts)
	if comm.Rank() == 0 {
		p.Dist, p.C = dist, c
	}
	return nil, err
}
