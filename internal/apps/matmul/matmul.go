// Package matmul implements the paper's regular demonstration application:
// parallel multiplication of dense square matrices, C = A×B, on an m×m
// grid of heterogeneous processors. The algorithm modifies the ScaLAPACK
// 2-D block-cyclic algorithm by substituting the heterogeneous
// generalised-block distribution of Kalinov and Lastovetsky (paper
// reference [6], implemented in package partition) for the homogeneous
// distribution: matrices are partitioned into l×l generalised blocks of
// r×r element blocks, each generalised block cut into rectangles whose
// areas are proportional to processor speeds.
//
// At each of the n steps, the pivot column of A is sent horizontally to
// row-overlapping processors, the pivot row of B vertically within
// processor columns, and every processor updates its C rectangle — one
// r×r block update (the rMxM benchmark kernel) per owned block.
//
// The same parallel code runs under the homogeneous baseline (Uniform2D
// distribution, processes taken in rank order) and under HMPI (distribution
// from measured speeds, group selected from the ParallelAxB performance
// model of Figure 7), exactly mirroring the paper's two programs.
package matmul

import (
	"fmt"
	"sync"

	"repro/internal/apps"
	"repro/internal/hnoc"
	"repro/internal/partition"
	"repro/internal/pmdl"
)

// Config describes a multiplication workload.
type Config struct {
	// M is the processor grid dimension (the paper uses 3).
	M int
	// R is the element size of one block; updating one r×r block is the
	// unit of computation (the rMxM benchmark).
	R int
	// N is the matrix size in r×r blocks (so matrices are (N*R)² elements).
	N int
	// RealMath allocates and multiplies actual matrices (used for
	// verification at small sizes). Without it only timing is simulated;
	// transfers keep their true sizes.
	RealMath bool
	// Seed makes matrix generation deterministic.
	Seed uint64
}

// Problem is a generated workload.
type Problem struct {
	M, R, N  int
	RealMath bool
	// A and B are the dense (N*R)² input matrices in row-major order,
	// allocated only when RealMath is set.
	A, B []float64
}

// Generate builds a problem, filling A and B deterministically when
// RealMath is requested.
func Generate(cfg Config) (*Problem, error) {
	if cfg.M <= 0 || cfg.R <= 0 || cfg.N <= 0 {
		return nil, fmt.Errorf("matmul: non-positive dimension in %+v", cfg)
	}
	if cfg.N < cfg.M {
		return nil, fmt.Errorf("matmul: matrix of %d blocks smaller than %d-grid", cfg.N, cfg.M)
	}
	pr := &Problem{M: cfg.M, R: cfg.R, N: cfg.N, RealMath: cfg.RealMath}
	if cfg.RealMath {
		seed := cfg.Seed
		if seed == 0 {
			seed = 0x243F6A8885A308D3
		}
		dim := cfg.N * cfg.R
		pr.A = make([]float64, dim*dim)
		pr.B = make([]float64, dim*dim)
		s := seed
		next := func() float64 {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			return float64(s%1000)/1000 - 0.5
		}
		for i := range pr.A {
			pr.A[i] = next()
		}
		for i := range pr.B {
			pr.B[i] = next()
		}
	}
	return pr, nil
}

// KernelUnits converts a count of r×r block updates into hardware speed
// units: one update is a multiply-add of two r×r blocks, 2r³ flops.
func (pr *Problem) KernelUnits(blocks float64) float64 {
	return blocks * 2 * float64(pr.R) * float64(pr.R) * float64(pr.R) / hnoc.FlopsPerSpeedUnit
}

// SerialMultiply computes C = A×B with the classic triple loop: the
// verification reference. Only valid with RealMath.
func (pr *Problem) SerialMultiply() []float64 {
	dim := pr.N * pr.R
	c := make([]float64, dim*dim)
	for i := 0; i < dim; i++ {
		for k := 0; k < dim; k++ {
			a := pr.A[i*dim+k]
			if a == 0 {
				continue
			}
			for j := 0; j < dim; j++ {
				c[i*dim+j] += a * pr.B[k*dim+j]
			}
		}
	}
	return c
}

// Dist is a concrete data distribution: a generalised-block partitioning
// applied block-cyclically to an N×N block matrix on an M×M grid.
// Grid position (i,j) corresponds to communicator rank i*M+j, which is
// also the abstract-processor index of the ParallelAxB performance model.
type Dist struct {
	*partition.Block2D
	N, R int
}

// NewHetero builds the heterogeneous distribution of [6] from a grid of
// (estimated) processor speeds and generalised block size l.
func NewHetero(speedGrid [][]float64, l, n, r int) (*Dist, error) {
	b, err := partition.Generalized2D(speedGrid, l)
	if err != nil {
		return nil, err
	}
	return &Dist{Block2D: b, N: n, R: r}, nil
}

// NewHomogeneous builds the baseline distribution: the standard
// homogeneous 2-D block-cyclic layout (every rectangle 1×1, l = m).
func NewHomogeneous(m, n, r int) *Dist {
	return &Dist{Block2D: partition.Uniform2D(m), N: n, R: r}
}

// RankOf maps grid coordinates to the communicator rank.
func (d *Dist) RankOf(i, j int) int { return i*d.M + j }

// GridOf maps a communicator rank to grid coordinates.
func (d *Dist) GridOf(rank int) (i, j int) { return rank / d.M, rank % d.M }

// ResidueRows returns how many block rows of an N-block matrix have
// residue rho modulo L (identical for columns).
func (d *Dist) ResidueCount(rho int) int {
	count := d.N / d.L()
	if rho < d.N%d.L() {
		count++
	}
	return count
}

// L returns the generalised block size.
func (d *Dist) L() int { return d.Block2D.L }

// OwnedBlocks returns the number of C blocks owned by grid processor
// (i,j) for the N×N block matrix.
func (d *Dist) OwnedBlocks(i, j int) int {
	rows := 0
	for rho := d.RowStart[i][j]; rho < d.RowStart[i][j]+d.H[i][j]; rho++ {
		rows += d.ResidueCount(rho)
	}
	cols := 0
	for sigma := d.ColStart[j]; sigma < d.ColStart[j]+d.W[j]; sigma++ {
		cols += d.ResidueCount(sigma)
	}
	return rows * cols
}

// RowOwnerInColumn returns the grid row of the processor owning block-row
// residue rho within grid column j.
func (d *Dist) RowOwnerInColumn(rho, j int) int {
	for i := 0; i < d.M; i++ {
		if d.RowStart[i][j] <= rho && rho < d.RowStart[i][j]+d.H[i][j] {
			return i
		}
	}
	panic(fmt.Sprintf("matmul: residue %d outside generalised block", rho))
}

// ColOwner returns the grid column owning block-column residue sigma.
func (d *Dist) ColOwner(sigma int) int {
	for j := 0; j < d.M; j++ {
		if d.ColStart[j] <= sigma && sigma < d.ColStart[j]+d.W[j] {
			return j
		}
	}
	panic(fmt.Sprintf("matmul: column residue %d outside generalised block", sigma))
}

// modelSource is the performance model of the heterogeneous matrix
// multiplication, following Figure 7 of the paper. Two typesetting defects
// of the figure are corrected: the four-dimensional declaration of h, and
// w[I] in the first link clause where the accompanying text derives w[J].
const modelSource = `
typedef struct {int I; int J;} Processor;

algorithm ParallelAxB(int m, int r, int n, int l, int w[m],
                      int h[m][m][m][m])
{
  coord I=m, J=m;
  node {I>=0 && J>=0: bench*(w[J]*(h[I][J][I][J])*(n/l)*(n/l)*n);};
  link (K=m, L=m)
  {
    I>=0 && J>=0 && I!=K :
      length*(w[J]*(h[I][J][I][J])*(n/l)*(n/l)*(r*r)*sizeof(double))
              [I, J] -> [K, J];
    I>=0 && J>=0 && J!=L && ((h[I][J][K][L]) > 0) :
      length*(w[J]*(h[I][J][K][L])*(n/l)*(n/l)*(r*r)*sizeof(double))
              [I, J] -> [K, L];
  };
  parent[0,0];
  scheme
  {
    int k;
    Processor Root, Receiver, Current;
    for(k = 0; k < n; k++)
    {
      int Acolumn = k%l, Arow;
      int Brow = k%l, Bcolumn;
      par(Arow = 0; Arow < l; )
      {
        GetProcessor(Arow, Acolumn, m, h, w, &Root);
        par(Receiver.I = 0; Receiver.I < m; Receiver.I++)
          par(Receiver.J = 0; Receiver.J < m; Receiver.J++)
            if((Root.I != Receiver.I || Root.J != Receiver.J) &&
               Root.J != Receiver.J)
              if((h[Root.I][Root.J][Receiver.I][Receiver.J]) > 0)
                (100/(w[Root.J]*(n/l)))%%
                       [Root.I, Root.J] -> [Receiver.I, Receiver.J];
        Arow += h[Root.I][Root.J][Root.I][Root.J];
      }
      par(Bcolumn = 0; Bcolumn < l; )
      {
        GetProcessor(Brow, Bcolumn, m, h, w, &Root);
        par(Receiver.I = 0; Receiver.I < m; Receiver.I++)
          if(Root.I != Receiver.I)
            (100/((h[Root.I][Root.J][Root.I][Root.J])*(n/l))) %%
                  [Root.I, Root.J] -> [Receiver.I, Root.J];
        Bcolumn += w[Root.J];
      }
      par(Current.I = 0; Current.I < m; Current.I++)
        par(Current.J = 0; Current.J < m; Current.J++)
          (100/n) %% [Current.I, Current.J];
    }
  };
};
`

// Model returns the ParallelAxB performance model (Figure 7), compiled on
// first use. A compiled model is immutable, so every caller shares the one
// value.
func Model() *pmdl.Model { return compiledModel() }

var compiledModel = sync.OnceValue(func() *pmdl.Model { return pmdl.MustParseModel(modelSource) })

// ModelArgs returns the actual parameters (m, r, n, l, w, h) of the
// ParallelAxB model for this distribution.
func (d *Dist) ModelArgs() []any {
	return []any{d.M, d.R, d.N, d.L(), append([]int(nil), d.W...), d.HParam()}
}

// ArrangeGrid builds the m×m speed grid the heterogeneous distribution is
// computed from: the host's speed occupies position (0,0) — the model's
// parent — and the remaining fastest m²−1 processes fill the grid
// row-major in descending speed order. It returns the grid and the world
// ranks arranged into it. A process whose speed is not positive is dead
// (self-healing plans over the survivors with the dead at speed 0) and
// takes no place.
func ArrangeGrid(speeds []float64, hostRank, m int) ([][]float64, []int, error) {
	live := 0
	for _, s := range speeds {
		if s > 0 {
			live++
		}
	}
	if live < m*m {
		return nil, nil, fmt.Errorf("matmul: %d live processes cannot fill a %dx%d grid", live, m, m)
	}
	ranks := apps.SpeedOrder(speeds, hostRank, m*m)
	grid := make([][]float64, m)
	for i := 0; i < m; i++ {
		grid[i] = make([]float64, m)
		for j := 0; j < m; j++ {
			grid[i][j] = speeds[ranks[i*m+j]]
		}
	}
	return grid, ranks, nil
}
