// Package jacobi is a third demonstration application beyond the paper's
// two: an iterative 5-point stencil (Jacobi relaxation / heat diffusion)
// on a square grid, decomposed into horizontal strips. It shows that the
// HMPI machinery — performance model, Recon, Timeof, group selection — is
// not wired to the paper's workloads: a new algorithm only brings its own
// model and kernel.
//
// The heterogeneous version sizes the strips proportionally to the
// measured speeds (the 1-D distribution of Kalinov & Lastovetsky,
// reference [6] of the paper); the baseline gives every process an equal
// strip, as a homogeneous-cluster code would.
package jacobi

import (
	"fmt"
	"sync"

	"repro/internal/hnoc"
	"repro/internal/partition"
	"repro/internal/pmdl"
)

// Config describes a workload.
type Config struct {
	// Rows and Cols are the grid dimensions (interior points).
	Rows, Cols int
	// Iters is the number of relaxation sweeps.
	Iters int
	// P is the number of strips (= processes).
	P int
	// RealMath allocates the grid and performs the actual sweeps.
	RealMath bool
	// Seed makes initial conditions deterministic.
	Seed uint64
}

// Problem is a generated workload.
type Problem struct {
	Rows, Cols, Iters, P int
	RealMath             bool
	// Grid is the initial field with a boundary frame, ((Rows+2) x
	// (Cols+2)) row-major, allocated only with RealMath.
	Grid []float64
}

// FlopsPerCell is the arithmetic cost of one 5-point update.
const FlopsPerCell = 5

// Generate builds a problem.
func Generate(cfg Config) (*Problem, error) {
	if cfg.Rows <= 0 || cfg.Cols <= 0 || cfg.Iters <= 0 || cfg.P <= 0 {
		return nil, fmt.Errorf("jacobi: non-positive dimension in %+v", cfg)
	}
	if cfg.Rows < cfg.P {
		return nil, fmt.Errorf("jacobi: %d rows cannot fill %d strips", cfg.Rows, cfg.P)
	}
	pr := &Problem{Rows: cfg.Rows, Cols: cfg.Cols, Iters: cfg.Iters, P: cfg.P, RealMath: cfg.RealMath}
	if cfg.RealMath {
		seed := cfg.Seed
		if seed == 0 {
			seed = 0xB5297A4D3F84D5A3
		}
		w := cfg.Cols + 2
		pr.Grid = make([]float64, (cfg.Rows+2)*w)
		s := seed
		for i := range pr.Grid {
			s ^= s << 13
			s ^= s >> 7
			s ^= s << 17
			pr.Grid[i] = float64(s%1000) / 1000
		}
	}
	return pr, nil
}

// KernelUnits converts a row count into hardware speed units: the model's
// benchmark kernel is the update of one grid row (Cols cells).
func (pr *Problem) KernelUnits(rows float64) float64 {
	return rows * float64(pr.Cols) * FlopsPerCell / hnoc.FlopsPerSpeedUnit
}

// SerialRun performs the sweeps on a copy of the grid and returns the
// final field (with frame). Boundary values are held fixed.
func (pr *Problem) SerialRun() []float64 {
	w := pr.Cols + 2
	cur := append([]float64(nil), pr.Grid...)
	next := append([]float64(nil), pr.Grid...)
	for it := 0; it < pr.Iters; it++ {
		for i := 1; i <= pr.Rows; i++ {
			for j := 1; j <= pr.Cols; j++ {
				next[i*w+j] = 0.25 * (cur[(i-1)*w+j] + cur[(i+1)*w+j] + cur[i*w+j-1] + cur[i*w+j+1])
			}
		}
		cur, next = next, cur
	}
	return cur
}

// Heights computes the heterogeneous strip heights for the given speeds.
func (pr *Problem) Heights(speeds []float64) ([]int, error) {
	h, err := partition.Proportional1D(pr.Rows, speeds)
	if err != nil {
		return nil, err
	}
	// Every strip needs at least one row.
	for i := range h {
		for h[i] == 0 {
			maxIdx := 0
			for k, v := range h {
				if v > h[maxIdx] {
					maxIdx = k
				}
			}
			h[maxIdx]--
			h[i]++
		}
	}
	return h, nil
}

// UniformHeights is the baseline: equal strips regardless of speed.
func (pr *Problem) UniformHeights() []int {
	h := make([]int, pr.P)
	ones := make([]float64, pr.P)
	for i := range ones {
		ones[i] = 1
	}
	h, _ = partition.Proportional1D(pr.Rows, ones)
	return h
}

// modelSource is the performance model: p strips, strip I updates h[I]
// rows per iteration (the benchmark kernel is one row) and exchanges one
// boundary row (cols*8 bytes) with each neighbour. The scheme describes
// one iteration: boundary exchanges in parallel, then all strips compute.
const modelSource = `
algorithm Jacobi(int p, int h[p], int cols) {
  coord I=p;
  node {I>=0: bench*(h[I]);};
  link (L=p) {
    I>=0 && (L == I+1 || L == I-1) :
      length*(cols*sizeof(double)) [L]->[I];
  };
  parent[0];
  scheme {
    int i, l;
    par (i = 0; i < p; i++)
      par (l = 0; l < p; l++)
        if (l == i+1 || l == i-1) 100%%[l]->[i];
    par (i = 0; i < p; i++) 100%%[i];
  };
}
`

// Model returns the Jacobi performance model, compiled on first use. A
// compiled model is immutable, so every caller shares the one value.
func Model() *pmdl.Model { return compiledModel() }

var compiledModel = sync.OnceValue(func() *pmdl.Model { return pmdl.MustParseModel(modelSource) })

// ModelArgs returns (p, h, cols) for the given strip heights.
func (pr *Problem) ModelArgs(heights []int) []any {
	return []any{pr.P, append([]int(nil), heights...), pr.Cols}
}
