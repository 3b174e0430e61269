//go:build !race

// Under the race detector sync.Pool drops a quarter of its Puts on
// purpose, so what a run allocates is not a property of the code there.

package matmul

import (
	"runtime"
	"testing"

	"repro/internal/apps"
	"repro/internal/hnoc"
)

// TestBlockingStepsAllocateNothing: a timing-only step of the blocking
// schedule allocates nothing — its pivots travel in the shared charge-only
// buffer and a run reuses its two step states — so doubling the number of
// steps (and quadrupling the messages) leaves a whole run's malloc count
// where it was, within less than one malloc per extra step.
func TestBlockingStepsAllocateNothing(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("allocation counts are not exact under coverage")
	}
	mallocs := func(n int) uint64 {
		pr, err := Generate(Config{M: 3, R: 9, N: n})
		if err != nil {
			t.Fatal(err)
		}
		best := ^uint64(0)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := apps.RunOn(hnoc.Paper9(), &Program{Problem: pr}, apps.MPI); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			best = min(best, after.Mallocs-before.Mallocs)
		}
		return best
	}
	short, long := mallocs(45), mallocs(90)
	if d := max(short, long) - min(short, long); d >= 45 {
		t.Errorf("45 steps made %d mallocs and 90 steps %d: %d apart, want under 45", short, long, d)
	}
}
