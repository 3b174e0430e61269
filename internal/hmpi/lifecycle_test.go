// Per-job runtime lifecycle: the guarantees hmpid leans on when it cycles
// one Runtime per submitted job inside a single long-lived process.

package hmpi

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/hnoc"
	"repro/internal/mapper"
	"repro/internal/vclock"
)

// runRing runs one ring job on a fresh runtime and returns its makespan.
func runRing(t *testing.T, cfg Config) vclock.Time {
	t.Helper()
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Finalize()
	model := testModel(t)
	if err := rt.Run(func(h *Process) error {
		g, err := h.GroupCreate(model, 3, []int{10, 10, 1000}, 100)
		if err != nil {
			return err
		}
		if h.IsMember(g) {
			return h.GroupFree(g)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return rt.Makespan()
}

// TestFinalizeLifecycle: Finalize is idempotent, observable, and fences
// Run while leaving results readable.
func TestFinalizeLifecycle(t *testing.T) {
	rt := newRuntime(t, hnoc.Paper9())
	if rt.finalized.Load() {
		t.Fatal("fresh runtime reports finalized")
	}
	if err := rt.Run(func(h *Process) error { return nil }); err != nil {
		t.Fatal(err)
	}
	mk := rt.Makespan()
	rt.Finalize()
	rt.Finalize() // idempotent
	if !rt.finalized.Load() {
		t.Fatal("Finalize did not take")
	}
	if err := rt.Run(func(h *Process) error { return nil }); err == nil {
		t.Fatal("Run succeeded on a finalized runtime")
	}
	if rt.Makespan() != mk {
		t.Fatal("Finalize disturbed the recorded makespan")
	}
	if rt.cfg.Cluster == nil || rt.World() == nil {
		t.Fatal("accessors unreadable after Finalize")
	}
}

// TestRuntimesDoNotShareClusterState: New deep-copies the cluster, so a
// failure observed by one runtime must not leak into a sibling runtime
// created from the same cluster value, nor into the caller's original.
func TestRuntimesDoNotShareClusterState(t *testing.T) {
	c := hnoc.Paper9()
	a, err := New(Config{Cluster: c})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Finalize()
	b, err := New(Config{Cluster: c})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Finalize()
	a.InjectFailure(3)
	if err := a.Run(func(h *Process) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if !a.cfg.Cluster.IsMachineFailed(3) {
		t.Fatal("runtime A did not record its own failure")
	}
	if b.cfg.Cluster.IsMachineFailed(3) || c.IsMachineFailed(3) {
		t.Fatal("failure state leaked across runtime boundaries")
	}
	c.DegradeLink(0, 1, 8)
	if a.cfg.Cluster.LinkDegradation(0, 1) != 1 || b.cfg.Cluster.LinkDegradation(0, 1) != 1 {
		t.Fatal("caller-side degradation leaked into a runtime's private cluster")
	}
}

// TestSharedSelectionCacheBitIdentical: jobs run with a daemon-style
// shared selection cache — concurrently, in any interleaving — produce
// makespans bit-identical to plain uncached runs, and the cache actually
// absorbs work across lifecycles.
func TestSharedSelectionCacheBitIdentical(t *testing.T) {
	want := runRing(t, Config{Cluster: hnoc.Paper9()})
	cache := mapper.NewSelectionCache(0)
	for i := 0; i < 3; i++ { // serial warm-up + repeat, same daemon cache
		got := runRing(t, Config{Cluster: hnoc.Paper9(), Selection: cache})
		if got != want {
			t.Fatalf("run %d with shared cache: makespan %v, want %v", i, got, want)
		}
	}
	st := cache.Stats()
	if st.SolveHits == 0 {
		t.Fatalf("shared cache never hit across repeated jobs: %+v", st)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rt, err := New(Config{Cluster: hnoc.Paper9(), Selection: cache})
			if err != nil {
				errs <- err
				return
			}
			defer rt.Finalize()
			model := testModel(t)
			if err := rt.Run(func(h *Process) error {
				g, err := h.GroupCreate(model, 3, []int{10, 10, 1000}, 100)
				if err != nil {
					return err
				}
				if h.IsMember(g) {
					return h.GroupFree(g)
				}
				return nil
			}); err != nil {
				errs <- err
				return
			}
			if got := rt.Makespan(); got != want {
				errs <- fmt.Errorf("concurrent job makespan %v, want %v", got, want)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestPredictTimeof: admission pricing agrees with what HMPI_Timeof
// reports inside a run (both use nominal pre-Recon speeds), works without
// any world, and benefits from the shared cache.
func TestPredictTimeof(t *testing.T) {
	model := testModel(t)
	cfg := Config{Cluster: hnoc.Paper9()}
	pred, stats, err := PredictTimeof(cfg, model, 3, []int{10, 10, 1000}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if pred <= 0 || stats.Evaluations == 0 {
		t.Fatalf("degenerate prediction: %v %+v", pred, stats)
	}
	rt := newRuntime(t, hnoc.Paper9())
	defer rt.Finalize()
	var inRun float64
	if err := rt.Run(func(h *Process) error {
		if h.IsHost() {
			v, err := h.Timeof(model, 3, []int{10, 10, 1000}, 100)
			if err != nil {
				return err
			}
			inRun = v
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if pred != inRun {
		t.Fatalf("PredictTimeof %v != in-run Timeof %v", pred, inRun)
	}
	cache := mapper.NewSelectionCache(0)
	cfg.Selection = cache
	warm, _, err := PredictTimeof(cfg, model, 3, []int{10, 10, 1000}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := PredictTimeof(cfg, model, 3, []int{10, 10, 1000}, 100); err != nil {
		t.Fatal(err)
	}
	if warm != pred {
		t.Fatalf("cached prediction %v != uncached %v", warm, pred)
	}
	if cache.Stats().SolveHits == 0 {
		t.Fatal("repeated prediction never hit the shared cache")
	}
}
