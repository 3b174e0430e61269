package apps_test

import (
	"runtime"
	"testing"

	"repro/internal/apps"
	"repro/internal/apps/em3d"
	"repro/internal/apps/jacobi"
	"repro/internal/apps/matmul"
	"repro/internal/hnoc"
)

// allocated returns the bytes f allocates (runtime.MemStats.TotalAlloc).
func allocated(f func()) int {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return int(after.TotalAlloc - before.TotalAlloc)
}

// TestTimingOnlyRunAllocatesWhatItSends holds the applications to their
// allocation invariant: a timing-only run allocates per message, never per
// field node. A whole apps.RunOn — runtime, world and communicator
// included — stays within three times the bytes the algorithm sends plus a
// fixed slack for the set-up; one array sized by a body per rank and phase
// is an order of magnitude over it.
func TestTimingOnlyRunAllocatesWhatItSends(t *testing.T) {
	const iters, slack = 3, 128 << 10

	em, err := em3d.Generate(em3d.Config{P: 6, TotalNodes: 60_000, Light: true})
	if err != nil {
		t.Fatal(err)
	}
	emSent := 0
	for _, row := range em.Dep() {
		for _, values := range row {
			emSent += 8 * values * iters
		}
	}
	ja, err := jacobi.Generate(jacobi.Config{Rows: 600, Cols: 600, Iters: iters, P: 6})
	if err != nil {
		t.Fatal(err)
	}
	jaSent := 2 * (ja.P - 1) * 8 * ja.Cols * iters
	// The blocking schedule on the homogeneous 3x3 grid: at each of the N
	// steps every block of the pivot column and of the pivot row goes to the
	// M-1 other processor columns (rows).
	mm, err := matmul.Generate(matmul.Config{M: 3, R: 9, N: 90})
	if err != nil {
		t.Fatal(err)
	}
	mmSent := mm.N * 2 * mm.N * (mm.M - 1) * 8 * mm.R * mm.R

	for _, c := range []struct {
		name string
		prog apps.Program
		sent int
	}{
		{"em3d", &em3d.Program{Problem: em, Opts: em3d.RunOptions{Iters: iters}}, emSent},
		{"em3d-overlap", &em3d.Program{Problem: em, Opts: em3d.RunOptions{Iters: iters, Overlap: true}}, emSent},
		{"jacobi", &jacobi.Program{Problem: ja}, jaSent},
		{"matmul", &matmul.Program{Problem: mm}, mmSent},
	} {
		got := allocated(func() {
			if _, err := apps.RunOn(hnoc.Paper9(), c.prog, apps.MPI); err != nil {
				t.Fatal(err)
			}
		})
		if budget := 3*c.sent + slack; got > budget {
			t.Errorf("%s: run allocated %d bytes to send %d, budget %d", c.name, got, c.sent, budget)
		}
	}
}

// TestLightGenerateAllocation: a Light problem holds no per-node slice, so
// generating the paper-size one costs its field arrays (3.2 MB), the
// boundary lists and the maps that draw them — not a slice header per node.
func TestLightGenerateAllocation(t *testing.T) {
	got := allocated(func() {
		if _, err := em3d.Generate(em3d.Config{P: 9, TotalNodes: 400_000, Light: true}); err != nil {
			t.Fatal(err)
		}
	})
	if budget := 7 << 20; got > budget {
		t.Errorf("Light Generate of 400 000 nodes allocated %d bytes, budget %d", got, budget)
	}
}
