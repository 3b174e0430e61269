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

	owned   int    // number of owned C blocks
	zeroBuf []byte // shared payload for charge-only transfers
	stashA  map[int][]float64
	stashB  map[int][]float64
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
	st.zeroBuf = make([]byte, pr.R*pr.R*8)
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

// payload serialises a block for transfer (or reuses the charge-only
// buffer).
func (st *procState) payload(blk []float64) []byte {
	if !st.pr.RealMath {
		return st.zeroBuf
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
	n, l := pr.N, dist.L()
	unitsPerStep := pr.KernelUnits(float64(st.owned))
	if opts.Overlap {
		return runPipelined(comm, pr, dist, st, opts)
	}

	for k := 0; k < n; k++ {
		krho := k % l
		if pr.RealMath {
			st.stashA, st.stashB = map[int][]float64{}, map[int][]float64{}
		}
		// ---- Pivot column of A moves horizontally. ----
		jStar := dist.ColOwner(krho)
		if st.mj == jStar {
			// I own the pivot blocks for my row residues; send each
			// to the row-overlapping processor of every other column.
			rlo, rhi := st.myRows()
			for rho := rlo; rho < rhi; rho++ {
				for bi := rho; bi < n; bi += l {
					var blk []float64
					if pr.RealMath {
						blk = st.a[blockKey{bi, k}]
					}
					for j := 0; j < pr.M; j++ {
						if j == jStar {
							continue
						}
						dst := dist.RankOf(dist.RowOwnerInColumn(rho, j), j)
						comm.IsendOwned(dst, tagA, st.payload(blk))
					}
					if pr.RealMath {
						st.stashA[bi] = blk
					}
				}
			}
		} else {
			// Receive the pivot blocks covering my row residues from
			// the owners in column jStar, in the sender's emission
			// order.
			rlo, rhi := st.myRows()
			for rho := rlo; rho < rhi; rho++ {
				src := dist.RankOf(dist.RowOwnerInColumn(rho, jStar), jStar)
				for bi := rho; bi < n; bi += l {
					data, _ := comm.Recv(src, tagA)
					if pr.RealMath {
						st.stashA[bi] = mpi.BytesFloat64(data)
					}
				}
			}
		}

		// ---- Pivot row of B moves vertically within columns. ----
		iStar := dist.RowOwnerInColumn(krho, st.mj)
		clo, chi := st.myCols()
		if st.mi == iStar {
			for sigma := clo; sigma < chi; sigma++ {
				for bj := sigma; bj < n; bj += l {
					var blk []float64
					if pr.RealMath {
						blk = st.b[blockKey{k, bj}]
					}
					for i := 0; i < pr.M; i++ {
						if i == iStar {
							continue
						}
						comm.IsendOwned(dist.RankOf(i, st.mj), tagB, st.payload(blk))
					}
					if pr.RealMath {
						st.stashB[bj] = blk
					}
				}
			}
		} else {
			src := dist.RankOf(iStar, st.mj)
			for sigma := clo; sigma < chi; sigma++ {
				for bj := sigma; bj < n; bj += l {
					data, _ := comm.Recv(src, tagB)
					if pr.RealMath {
						st.stashB[bj] = mpi.BytesFloat64(data)
					}
				}
			}
		}

		// ---- Update: every owned C block gains a[bi][k]*b[k][bj]. ----
		comm.Proc().Compute(unitsPerStep)
		if pr.RealMath {
			for key, cblk := range st.c {
				ablk, ok := st.stashA[key.bi]
				if !ok {
					return nil, fmt.Errorf("matmul: step %d: process %d missing A block row %d", k, st.me, key.bi)
				}
				bblk, ok := st.stashB[key.bj]
				if !ok {
					return nil, fmt.Errorf("matmul: step %d: process %d missing B block col %d", k, st.me, key.bj)
				}
				mulAdd(cblk, ablk, bblk, pr.R)
			}
		}
	}

	if pr.RealMath && opts.CollectC {
		return collectC(comm, pr, dist, st)
	}
	return nil, nil
}

// stepComm is the in-flight communication of one pipelined step: the
// pivot receives (with the block coordinate each carries), the posted
// sends, and the owner-side stashes captured at posting time.
type stepComm struct {
	recvsA  []*mpi.Request
	recvAbi []int
	recvsB  []*mpi.Request
	recvBbj []int
	sends   []*mpi.Request
	stashA  map[int][]float64
	stashB  map[int][]float64
}

// postStep starts step k's pivot transfers without blocking: receives
// are posted before sends (post-early), in the same per-peer order as the
// blocking schedule, so the progress engine assigns arriving blocks to
// steps by posting order even when two steps are in flight.
func postStep(comm *mpi.Comm, st *procState, k int) *stepComm {
	pr, dist := st.pr, st.dist
	n, l := pr.N, dist.L()
	krho := k % l
	sc := &stepComm{}
	if pr.RealMath {
		sc.stashA, sc.stashB = map[int][]float64{}, map[int][]float64{}
	}

	// Pivot column of A moves horizontally.
	jStar := dist.ColOwner(krho)
	rlo, rhi := st.myRows()
	if st.mj != jStar {
		for rho := rlo; rho < rhi; rho++ {
			src := dist.RankOf(dist.RowOwnerInColumn(rho, jStar), jStar)
			for bi := rho; bi < n; bi += l {
				sc.recvsA = append(sc.recvsA, comm.Irecv(src, tagA))
				sc.recvAbi = append(sc.recvAbi, bi)
			}
		}
	}
	// Pivot row of B moves vertically within columns.
	iStar := dist.RowOwnerInColumn(krho, st.mj)
	clo, chi := st.myCols()
	if st.mi != iStar {
		src := dist.RankOf(iStar, st.mj)
		for sigma := clo; sigma < chi; sigma++ {
			for bj := sigma; bj < n; bj += l {
				sc.recvsB = append(sc.recvsB, comm.Irecv(src, tagB))
				sc.recvBbj = append(sc.recvBbj, bj)
			}
		}
	}

	if st.mj == jStar {
		for rho := rlo; rho < rhi; rho++ {
			for bi := rho; bi < n; bi += l {
				var blk []float64
				if pr.RealMath {
					blk = st.a[blockKey{bi, k}]
				}
				for j := 0; j < pr.M; j++ {
					if j == jStar {
						continue
					}
					dst := dist.RankOf(dist.RowOwnerInColumn(rho, j), j)
					sc.sends = append(sc.sends, comm.IsendOwned(dst, tagA, st.payload(blk)))
				}
				if pr.RealMath {
					sc.stashA[bi] = blk
				}
			}
		}
	}
	if st.mi == iStar {
		for sigma := clo; sigma < chi; sigma++ {
			for bj := sigma; bj < n; bj += l {
				var blk []float64
				if pr.RealMath {
					blk = st.b[blockKey{k, bj}]
				}
				for i := 0; i < pr.M; i++ {
					if i == iStar {
						continue
					}
					sc.sends = append(sc.sends, comm.IsendOwned(dist.RankOf(i, st.mj), tagB, st.payload(blk)))
				}
				if pr.RealMath {
					sc.stashB[bj] = blk
				}
			}
		}
	}
	return sc
}

// completeRecvs waits for step k's pivot blocks and stashes them by
// block coordinate.
func (sc *stepComm) completeRecvs(realMath bool) {
	for idx, r := range sc.recvsA {
		data, _ := r.Wait()
		if realMath {
			sc.stashA[sc.recvAbi[idx]] = mpi.BytesFloat64(data)
		}
	}
	for idx, r := range sc.recvsB {
		data, _ := r.Wait()
		if realMath {
			sc.stashB[sc.recvBbj[idx]] = mpi.BytesFloat64(data)
		}
	}
}

// runPipelined is the overlapped schedule of RunParallel: step k+1's
// pivot transfers are posted before step k's update, so each step's
// communication hides behind the previous step's compute. Send requests
// complete after the update they were hidden behind.
func runPipelined(comm *mpi.Comm, pr *Problem, dist *Dist, st *procState, opts RunOptions) ([]float64, error) {
	n := pr.N
	unitsPerStep := pr.KernelUnits(float64(st.owned))
	sc := postStep(comm, st, 0)
	for k := 0; k < n; k++ {
		var next *stepComm
		if k+1 < n {
			next = postStep(comm, st, k+1)
		}
		sc.completeRecvs(pr.RealMath)
		comm.Proc().Compute(unitsPerStep)
		if pr.RealMath {
			for key, cblk := range st.c {
				ablk, ok := sc.stashA[key.bi]
				if !ok {
					return nil, fmt.Errorf("matmul: step %d: process %d missing A block row %d", k, st.me, key.bi)
				}
				bblk, ok := sc.stashB[key.bj]
				if !ok {
					return nil, fmt.Errorf("matmul: step %d: process %d missing B block col %d", k, st.me, key.bj)
				}
				mulAdd(cblk, ablk, bblk, pr.R)
			}
		}
		mpi.WaitAll(sc.sends)
		sc = next
	}
	if pr.RealMath && opts.CollectC {
		return collectC(comm, pr, dist, st)
	}
	return nil, nil
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
