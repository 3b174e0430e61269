// Package partition implements the heterogeneous data-partitioning
// algorithms the paper's applications rest on: proportional 1-D
// partitioning, and the 2-D generalised-block partitioning of Kalinov and
// Lastovetsky ("Heterogeneous Distribution of Computations Solving Linear
// Algebra Problems on Networks of Heterogeneous Computers", reference [6]
// of the paper), in which each l×l generalised block of a matrix is cut
// into column slices proportional to processor-column speeds and each
// column slice into rectangles proportional to individual processor
// speeds.
package partition

import (
	"fmt"
	"sort"
)

// Proportional1D splits total items among parties proportionally to their
// speeds: the returned shares sum to total and each share differs from the
// exact proportional value by less than one item (largest-remainder
// rounding, ties broken by lower index). Speeds must be positive.
func Proportional1D(total int, speeds []float64) ([]int, error) {
	if total < 0 {
		return nil, fmt.Errorf("partition: negative total %d", total)
	}
	if len(speeds) == 0 {
		return nil, fmt.Errorf("partition: no speeds")
	}
	var sum float64
	for i, s := range speeds {
		if s <= 0 {
			return nil, fmt.Errorf("partition: speed[%d] = %v is not positive", i, s)
		}
		sum += s
	}
	shares := make([]int, len(speeds))
	fracs := make([]float64, len(speeds))
	assigned := 0
	for i, s := range speeds {
		exact := float64(total) * s / sum
		shares[i] = int(exact)
		fracs[i] = exact - float64(shares[i])
		assigned += shares[i]
	}
	// Distribute the remainder to the largest fractional parts.
	order := make([]int, len(speeds))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return fracs[order[a]] > fracs[order[b]] })
	for k := 0; assigned < total; k++ {
		shares[order[k%len(order)]]++
		assigned++
	}
	return shares, nil
}

// Block2D is the heterogeneous partitioning of an l×l generalised block
// over an m×m processor grid. Every generalised block of the matrix is
// partitioned identically.
type Block2D struct {
	M int // processor grid dimension
	L int // generalised block size, in r×r blocks

	// W[j] is the width of processor column j's vertical slice; sum = L.
	W []int
	// H[i][j] is the height of processor (i,j)'s rectangle inside column
	// j's slice; for each j the heights sum to L.
	H [][]int
	// ColStart[j] is the first block column of slice j.
	ColStart []int
	// RowStart[i][j] is the first block row of processor (i,j)'s
	// rectangle.
	RowStart [][]int
}

// Generalized2D computes the distribution of [6] for an m×m grid with the
// given per-processor speeds (speeds[i][j] is the speed of processor P_ij)
// and generalised block size l ≥ m:
//
//  1. the l columns are split into m vertical slices with widths
//     proportional to the column speed sums, then
//  2. each vertical slice is split independently into m rectangles with
//     heights proportional to the individual processor speeds in that grid
//     column.
//
// The area of each rectangle is then proportional to its processor's speed
// up to rounding, so each processor's share of every generalised block —
// and hence of the whole matrix — matches its speed.
func Generalized2D(speeds [][]float64, l int) (*Block2D, error) {
	m := len(speeds)
	if m == 0 {
		return nil, fmt.Errorf("partition: empty speed matrix")
	}
	for i := range speeds {
		if len(speeds[i]) != m {
			return nil, fmt.Errorf("partition: speed matrix row %d has %d entries, want %d", i, len(speeds[i]), m)
		}
	}
	if l < m {
		return nil, fmt.Errorf("partition: generalised block size %d smaller than grid %d", l, m)
	}
	colSpeeds := make([]float64, m)
	for j := 0; j < m; j++ {
		for i := 0; i < m; i++ {
			colSpeeds[j] += speeds[i][j]
		}
	}
	w, err := Proportional1D(l, colSpeeds)
	if err != nil {
		return nil, err
	}
	// Every processor column must receive at least one block column,
	// otherwise its processors would hold no data. Steal from the widest
	// columns.
	if err := ensurePositive(w, colSpeeds); err != nil {
		return nil, err
	}
	b := &Block2D{M: m, L: l, W: w}
	b.ColStart = prefix(w)
	b.H = make([][]int, m)
	b.RowStart = make([][]int, m)
	for i := 0; i < m; i++ {
		b.H[i] = make([]int, m)
		b.RowStart[i] = make([]int, m)
	}
	for j := 0; j < m; j++ {
		col := make([]float64, m)
		for i := 0; i < m; i++ {
			col[i] = speeds[i][j]
		}
		h, err := Proportional1D(l, col)
		if err != nil {
			return nil, err
		}
		if err := ensurePositive(h, col); err != nil {
			return nil, err
		}
		starts := prefix(h)
		for i := 0; i < m; i++ {
			b.H[i][j] = h[i]
			b.RowStart[i][j] = starts[i]
		}
	}
	return b, nil
}

// FromParts reconstructs a Block2D from its widths and heights (e.g. after
// they travelled over the network), validating that they tile an l×l
// block.
func FromParts(l int, w []int, h [][]int) (*Block2D, error) {
	m := len(w)
	if m == 0 || len(h) != m {
		return nil, fmt.Errorf("partition: FromParts needs square inputs, got w[%d] h[%d]", m, len(h))
	}
	sumW := 0
	for _, x := range w {
		if x <= 0 {
			return nil, fmt.Errorf("partition: non-positive width %d", x)
		}
		sumW += x
	}
	if sumW != l {
		return nil, fmt.Errorf("partition: widths sum to %d, want %d", sumW, l)
	}
	b := &Block2D{M: m, L: l, W: append([]int(nil), w...), ColStart: prefix(w)}
	b.H = make([][]int, m)
	b.RowStart = make([][]int, m)
	for i := 0; i < m; i++ {
		if len(h[i]) != m {
			return nil, fmt.Errorf("partition: ragged heights")
		}
		b.H[i] = append([]int(nil), h[i]...)
		b.RowStart[i] = make([]int, m)
	}
	for j := 0; j < m; j++ {
		sum := 0
		for i := 0; i < m; i++ {
			if h[i][j] <= 0 {
				return nil, fmt.Errorf("partition: non-positive height %d at (%d,%d)", h[i][j], i, j)
			}
			b.RowStart[i][j] = sum
			sum += h[i][j]
		}
		if sum != l {
			return nil, fmt.Errorf("partition: column %d heights sum to %d, want %d", j, sum, l)
		}
	}
	return b, nil
}

// Uniform2D returns the homogeneous 2-D block-cyclic distribution used by
// the paper's plain-MPI baseline (ScaLAPACK style): generalised block size
// equal to the grid size, every rectangle 1×1.
func Uniform2D(m int) *Block2D {
	speeds := make([][]float64, m)
	for i := range speeds {
		speeds[i] = make([]float64, m)
		for j := range speeds[i] {
			speeds[i][j] = 1
		}
	}
	b, err := Generalized2D(speeds, m)
	if err != nil {
		panic(err) // cannot happen: uniform speeds, l == m
	}
	return b
}

// ensurePositive raises zero shares to one by stealing from the largest
// shares (processors that received more than one). It fails only if there
// are more parties than items.
func ensurePositive(shares []int, speeds []float64) error {
	total := 0
	for _, s := range shares {
		total += s
	}
	if total < len(shares) {
		return fmt.Errorf("partition: %d items cannot give every one of %d parties a positive share", total, len(shares))
	}
	for i := range shares {
		for shares[i] == 0 {
			// Steal from the current maximum.
			maxIdx := 0
			for k, s := range shares {
				if s > shares[maxIdx] {
					maxIdx = k
				}
			}
			shares[maxIdx]--
			shares[i]++
		}
	}
	return nil
}

func prefix(xs []int) []int {
	out := make([]int, len(xs))
	acc := 0
	for i, x := range xs {
		out[i] = acc
		acc += x
	}
	return out
}

// OwnerOf returns the grid coordinates of the processor owning the block
// at position (row, col) within a generalised block (0 ≤ row, col < L).
// It is the GetProcessor function of the paper's performance model.
func (b *Block2D) OwnerOf(row, col int) (i, j int) {
	if row < 0 || row >= b.L || col < 0 || col >= b.L {
		panic(fmt.Sprintf("partition: position (%d,%d) outside generalised block of size %d", row, col, b.L))
	}
	j = sort.Search(b.M, func(k int) bool {
		return k == b.M-1 || b.ColStart[k+1] > col
	})
	for i = 0; i < b.M; i++ {
		if b.RowStart[i][j] <= row && row < b.RowStart[i][j]+b.H[i][j] {
			return i, j
		}
	}
	panic("partition: unreachable: rows cover the block")
}

// GlobalOwner returns the owner of global block (bi, bj) of a matrix
// partitioned block-cyclically with this distribution: position within the
// generalised block is (bi mod L, bj mod L).
func (b *Block2D) GlobalOwner(bi, bj int) (i, j int) {
	return b.OwnerOf(bi%b.L, bj%b.L)
}

// RowOverlap returns the number of block rows shared by the row intervals
// of rectangles R(i1,j1) and R(i2,j2): the h[I][J][K][L] parameter of the
// paper's ParallelAxB performance model. Processor (i1,j1) must send its
// part of a pivot column of A to (i2,j2) exactly when their rectangles
// overlap in rows and sit in different grid columns.
func (b *Block2D) RowOverlap(i1, j1, i2, j2 int) int {
	lo := max(b.RowStart[i1][j1], b.RowStart[i2][j2])
	hi := min(b.RowStart[i1][j1]+b.H[i1][j1], b.RowStart[i2][j2]+b.H[i2][j2])
	if hi < lo {
		return 0
	}
	return hi - lo
}

// HParam assembles the full h[m][m][m][m] parameter of the ParallelAxB
// performance model: HParam()[i][j][k][l] = RowOverlap(i,j,k,l).
func (b *Block2D) HParam() [][][][]int {
	h := make([][][][]int, b.M)
	for i := range h {
		h[i] = make([][][]int, b.M)
		for j := range h[i] {
			h[i][j] = make([][]int, b.M)
			for k := range h[i][j] {
				h[i][j][k] = make([]int, b.M)
				for l := range h[i][j][k] {
					h[i][j][k][l] = b.RowOverlap(i, j, k, l)
				}
			}
		}
	}
	return h
}
