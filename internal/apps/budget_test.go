package apps_test

import (
	"runtime"
	"sync"
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
// is an order of magnitude over it. EM3D's halo sends charge-only payloads,
// so its iterations allocate only their requests: thirty iterations cost
// the three-iteration run plus at most a send's and a posted receive's
// request per added message, well under the smallest payload it sends.
func TestTimingOnlyRunAllocatesWhatItSends(t *testing.T) {
	const iters, slack = 3, 128 << 10
	const longIters, perMessage, growthSlack = 30, 512, 16 << 10

	em, err := em3d.Generate(em3d.Config{P: 6, TotalNodes: 60_000, Light: true})
	if err != nil {
		t.Fatal(err)
	}
	emSent, emMessages := 0, 0
	for i := range em.Bodies {
		for j := range em.Bodies {
			for _, idx := range [][]int{em.DepH[i][j], em.DepE[i][j]} {
				if len(idx) > 0 {
					emSent += 8 * len(idx) * iters
					emMessages++
				}
			}
		}
	}
	ja, err := jacobi.Generate(jacobi.Config{Rows: 600, Cols: 600, Iters: iters, P: 6})
	if err != nil {
		t.Fatal(err)
	}
	jaSent := 2 * (ja.P - 1) * 8 * ja.Cols * iters
	// Either schedule on the homogeneous 3x3 grid: at each of the N steps
	// every block of the pivot column and of the pivot row goes to the M-1
	// other processor columns (rows).
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
		{"matmul-overlap", &matmul.Program{Problem: mm, Opts: matmul.RunOptions{Overlap: true}}, mmSent},
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

	for _, overlap := range []bool{false, true} {
		run := func(iters int) int {
			prog := &em3d.Program{Problem: em, Opts: em3d.RunOptions{Iters: iters, Overlap: overlap}}
			return allocated(func() {
				if _, err := apps.RunOn(hnoc.Paper9(), prog, apps.MPI); err != nil {
					t.Fatal(err)
				}
			})
		}
		short, long := run(iters), run(longIters)
		if budget := short + (longIters-iters)*emMessages*perMessage + growthSlack; long > budget {
			t.Errorf("em3d overlap=%v: %d iterations allocated %d bytes, %d iterations %d: budget %d",
				overlap, iters, short, longIters, long, budget)
		}
	}
}

// TestChargeOnlyNeverWritten: every timing-only message of every
// application shares apps.ChargeOnly's one zero array, so nothing on the
// message path may write it. Runs of all three applications, both
// schedules where there are two, at once, then the array is checked; a
// write during the runs is also a race the detector reports in `make
// check`.
func TestChargeOnlyNeverWritten(t *testing.T) {
	em, err := em3d.Generate(em3d.Config{P: 6, TotalNodes: 12_000, Light: true})
	if err != nil {
		t.Fatal(err)
	}
	ja, err := jacobi.Generate(jacobi.Config{Rows: 120, Cols: 120, Iters: 3, P: 6})
	if err != nil {
		t.Fatal(err)
	}
	mm, err := matmul.Generate(matmul.Config{M: 3, R: 4, N: 9})
	if err != nil {
		t.Fatal(err)
	}
	progs := []apps.Program{
		&em3d.Program{Problem: em, Opts: em3d.RunOptions{Iters: 3}},
		&em3d.Program{Problem: em, Opts: em3d.RunOptions{Iters: 3, Overlap: true}},
		&jacobi.Program{Problem: ja},
		&matmul.Program{Problem: mm},
		&matmul.Program{Problem: mm, Opts: matmul.RunOptions{Overlap: true}},
	}
	var wg sync.WaitGroup
	for _, prog := range progs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := apps.RunOn(hnoc.Paper9(), prog, apps.MPI); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	// The largest shared payload is the whole array.
	for i, b := range apps.ChargeOnly(1 << 20) {
		if b != 0 {
			t.Fatalf("byte %d of the shared charge-only payload was written", i)
		}
	}
}

// TestLightGenerateAllocation: a Light problem holds no per-node slice and
// no field values, so generating the paper-size one costs its boundary
// lists and the bitsets that draw them — not the 3.2 MB of a field, nor a
// slice header per node.
func TestLightGenerateAllocation(t *testing.T) {
	got := allocated(func() {
		if _, err := em3d.Generate(em3d.Config{P: 9, TotalNodes: 400_000, Light: true}); err != nil {
			t.Fatal(err)
		}
	})
	if budget := 1 << 20; got > budget {
		t.Errorf("Light Generate of 400 000 nodes allocated %d bytes, budget %d", got, budget)
	}
}
