package partition

import (
	"math"
	"testing"
	"testing/quick"
)

func TestProportional1DExact(t *testing.T) {
	shares, err := Proportional1D(100, []float64{1, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if shares[0] != 25 || shares[1] != 25 || shares[2] != 50 {
		t.Fatalf("shares = %v, want [25 25 50]", shares)
	}
}

func TestProportional1DRounding(t *testing.T) {
	shares, err := Proportional1D(10, []float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, s := range shares {
		sum += s
		if s < 3 || s > 4 {
			t.Fatalf("share %d outside [3,4]: %v", s, shares)
		}
	}
	if sum != 10 {
		t.Fatalf("shares sum to %d", sum)
	}
}

func TestProportional1DErrors(t *testing.T) {
	if _, err := Proportional1D(-1, []float64{1}); err == nil {
		t.Error("negative total accepted")
	}
	if _, err := Proportional1D(5, nil); err == nil {
		t.Error("empty speeds accepted")
	}
	if _, err := Proportional1D(5, []float64{1, 0}); err == nil {
		t.Error("zero speed accepted")
	}
	if _, err := Proportional1D(5, []float64{1, -2}); err == nil {
		t.Error("negative speed accepted")
	}
}

// Property: shares sum to total and each share is within 1 of the exact
// proportional amount.
func TestProportional1DProperties(t *testing.T) {
	f := func(total uint16, raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 40 {
			raw = raw[:40]
		}
		speeds := make([]float64, len(raw))
		var sum float64
		for i, r := range raw {
			speeds[i] = float64(r%250) + 1
			sum += speeds[i]
		}
		n := int(total % 5000)
		shares, err := Proportional1D(n, speeds)
		if err != nil {
			return false
		}
		got := 0
		for i, s := range shares {
			got += s
			exact := float64(n) * speeds[i] / sum
			if math.Abs(float64(s)-exact) >= 1 {
				return false
			}
		}
		return got == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// paperSpeeds arranges the paper's nine machines on a 3x3 grid.
func paperSpeeds() [][]float64 {
	return [][]float64{
		{46, 46, 46},
		{46, 46, 46},
		{176, 106, 9},
	}
}

func TestGeneralized2DShape(t *testing.T) {
	b, err := Generalized2D(paperSpeeds(), 9)
	if err != nil {
		t.Fatal(err)
	}
	// Widths sum to L.
	sumW := 0
	for _, w := range b.W {
		sumW += w
		if w <= 0 {
			t.Fatalf("non-positive width in %v", b.W)
		}
	}
	if sumW != 9 {
		t.Fatalf("widths %v sum to %d, want 9", b.W, sumW)
	}
	// Heights per column sum to L.
	for j := 0; j < 3; j++ {
		sumH := 0
		for i := 0; i < 3; i++ {
			sumH += b.H[i][j]
			if b.H[i][j] <= 0 {
				t.Fatalf("non-positive height at (%d,%d)", i, j)
			}
		}
		if sumH != 9 {
			t.Fatalf("column %d heights sum to %d, want 9", j, sumH)
		}
	}
	// Total area is L^2.
	area := 0
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			area += b.H[i][j] * b.W[j]
		}
	}
	if area != 81 {
		t.Fatalf("areas sum to %d, want 81", area)
	}
}

func TestGeneralized2DProportionality(t *testing.T) {
	// With a large generalised block, areas track speeds closely.
	speeds := paperSpeeds()
	b, err := Generalized2D(speeds, 120)
	if err != nil {
		t.Fatal(err)
	}
	var totalSpeed float64
	for i := range speeds {
		for j := range speeds[i] {
			totalSpeed += speeds[i][j]
		}
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			got := float64(b.H[i][j]*b.W[j]) / float64(120*120)
			want := speeds[i][j] / totalSpeed
			if math.Abs(got-want) > 0.02 {
				t.Errorf("P(%d,%d) area share %.4f, speed share %.4f", i, j, got, want)
			}
		}
	}
}

func TestUniform2D(t *testing.T) {
	b := Uniform2D(3)
	if b.L != 3 {
		t.Fatalf("uniform L = %d, want 3", b.L)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if b.H[i][j]*b.W[j] != 1 {
				t.Fatalf("uniform area (%d,%d) = %d", i, j, b.H[i][j]*b.W[j])
			}
		}
	}
	// Standard block-cyclic ownership.
	for bi := 0; bi < 6; bi++ {
		for bj := 0; bj < 6; bj++ {
			i, j := b.GlobalOwner(bi, bj)
			if i != bi%3 || j != bj%3 {
				t.Fatalf("GlobalOwner(%d,%d) = (%d,%d)", bi, bj, i, j)
			}
		}
	}
}

func TestOwnerOfCoversBlock(t *testing.T) {
	b, err := Generalized2D(paperSpeeds(), 11)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[[2]int]int)
	for r := 0; r < 11; r++ {
		for c := 0; c < 11; c++ {
			i, j := b.OwnerOf(r, c)
			counts[[2]int{i, j}]++
			// Consistency with the rectangle geometry.
			row, col := b.RowStart[i][j], b.ColStart[j]
			if r < row || r >= row+b.H[i][j] || c < col || c >= col+b.W[j] {
				t.Fatalf("OwnerOf(%d,%d) = (%d,%d), whose rectangle is %dx%d at (%d,%d)", r, c, i, j, b.H[i][j], b.W[j], row, col)
			}
		}
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if counts[[2]int{i, j}] != b.H[i][j]*b.W[j] {
				t.Fatalf("cell count %d != area %d at (%d,%d)", counts[[2]int{i, j}], b.H[i][j]*b.W[j], i, j)
			}
		}
	}
}

func TestOwnerOfPanicsOutside(t *testing.T) {
	b := Uniform2D(2)
	defer func() {
		if recover() == nil {
			t.Fatal("OwnerOf outside block did not panic")
		}
	}()
	b.OwnerOf(2, 0)
}

func TestRowOverlap(t *testing.T) {
	b, err := Generalized2D(paperSpeeds(), 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			// Self overlap is own height.
			if got := b.RowOverlap(i, j, i, j); got != b.H[i][j] {
				t.Errorf("self overlap (%d,%d) = %d, want %d", i, j, got, b.H[i][j])
			}
			// Symmetry: h[I][J][K][L] == h[K][L][I][J] (paper's note).
			for k := 0; k < 3; k++ {
				for l := 0; l < 3; l++ {
					if b.RowOverlap(i, j, k, l) != b.RowOverlap(k, l, i, j) {
						t.Errorf("overlap not symmetric at (%d,%d,%d,%d)", i, j, k, l)
					}
				}
			}
		}
	}
	// Overlaps of one rectangle with a full different column sum to its
	// height (the column's rectangles tile all L rows).
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			for l := 0; l < 3; l++ {
				if l == j {
					continue
				}
				sum := 0
				for k := 0; k < 3; k++ {
					sum += b.RowOverlap(i, j, k, l)
				}
				if sum != b.H[i][j] {
					t.Errorf("overlaps of (%d,%d) with column %d sum to %d, want %d", i, j, l, sum, b.H[i][j])
				}
			}
		}
	}
}

func TestHParamMatchesRowOverlap(t *testing.T) {
	b, err := Generalized2D(paperSpeeds(), 9)
	if err != nil {
		t.Fatal(err)
	}
	h := b.HParam()
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			for k := 0; k < 3; k++ {
				for l := 0; l < 3; l++ {
					if h[i][j][k][l] != b.RowOverlap(i, j, k, l) {
						t.Fatalf("HParam mismatch at (%d,%d,%d,%d)", i, j, k, l)
					}
				}
			}
		}
	}
}

func TestGeneralized2DErrors(t *testing.T) {
	if _, err := Generalized2D(nil, 4); err == nil {
		t.Error("empty matrix accepted")
	}
	if _, err := Generalized2D([][]float64{{1, 2}}, 4); err == nil {
		t.Error("ragged matrix accepted")
	}
	if _, err := Generalized2D(paperSpeeds(), 2); err == nil {
		t.Error("l < m accepted")
	}
}

// Property: Generalized2D always produces a tiling — every cell owned
// exactly once, widths/heights positive, areas sum to L².
func TestGeneralized2DTilingProperty(t *testing.T) {
	f := func(raw [9]uint8, lRaw uint8) bool {
		m := 3
		l := m + int(lRaw%20)
		speeds := make([][]float64, m)
		for i := 0; i < m; i++ {
			speeds[i] = make([]float64, m)
			for j := 0; j < m; j++ {
				speeds[i][j] = float64(raw[i*m+j]%100) + 1
			}
		}
		b, err := Generalized2D(speeds, l)
		if err != nil {
			return false
		}
		seen := 0
		for r := 0; r < l; r++ {
			for c := 0; c < l; c++ {
				i, j := b.OwnerOf(r, c)
				if i < 0 || i >= m || j < 0 || j >= m {
					return false
				}
				seen++
			}
		}
		return seen == l*l
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFromPartsRoundTrip(t *testing.T) {
	b, err := Generalized2D(paperSpeeds(), 9)
	if err != nil {
		t.Fatal(err)
	}
	h := make([][]int, 3)
	for i := range h {
		h[i] = make([]int, 3)
		for j := range h[i] {
			h[i][j] = b.H[i][j]
		}
	}
	got, err := FromParts(9, b.W, h)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if got.RowStart[i][j] != b.RowStart[i][j] || got.ColStart[j] != b.ColStart[j] || got.H[i][j] != b.H[i][j] || got.W[j] != b.W[j] {
				t.Fatalf("rectangle (%d,%d) differs", i, j)
			}
		}
	}
}

func TestFromPartsValidation(t *testing.T) {
	ones := [][]int{{1, 1}, {1, 1}}
	for name, tc := range map[string]struct {
		l int
		w []int
		h [][]int
	}{
		"empty":          {2, nil, nil},
		"non-square":     {2, []int{1, 1}, [][]int{{1, 1}}},
		"zero width":     {2, []int{0, 2}, ones},
		"width sum":      {3, []int{1, 1}, ones},
		"ragged heights": {2, []int{1, 1}, [][]int{{1, 1}, {1}}},
		"zero height":    {2, []int{1, 1}, [][]int{{0, 1}, {2, 1}}},
		"height col sum": {2, []int{1, 1}, [][]int{{1, 1}, {2, 1}}},
	} {
		if _, err := FromParts(tc.l, tc.w, tc.h); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// A valid 2x2 uniform case passes.
	if _, err := FromParts(2, []int{1, 1}, ones); err != nil {
		t.Error(err)
	}
}

func TestEnsurePositiveTooFewItems(t *testing.T) {
	// 2 items for 3 parties: impossible.
	_, err := Generalized2D([][]float64{
		{1, 1, 1},
		{1, 1, 1},
		{1, 1, 1},
	}, 2)
	if err == nil {
		t.Fatal("l < m accepted through Generalized2D")
	}
}

func TestGlobalOwnerCyclic(t *testing.T) {
	b, err := Generalized2D(paperSpeeds(), 9)
	if err != nil {
		t.Fatal(err)
	}
	// Block (bi, bj) and (bi+9, bj+18) have the same owner (period L).
	for bi := 0; bi < 9; bi++ {
		for bj := 0; bj < 9; bj++ {
			i1, j1 := b.GlobalOwner(bi, bj)
			i2, j2 := b.GlobalOwner(bi+9, bj+18)
			if i1 != i2 || j1 != j2 {
				t.Fatalf("cyclic ownership broken at (%d,%d)", bi, bj)
			}
		}
	}
}
