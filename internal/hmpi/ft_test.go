package hmpi

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/hnoc"
	"repro/internal/mpi"
)

// runRuntimeWithTimeout guards against hangs in failure paths: a recovery
// protocol that deadlocks is a test failure, not a stuck CI job.
func runRuntimeWithTimeout(t *testing.T, rt *Runtime, d time.Duration, main func(h *Process) error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- rt.Run(main) }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatalf("runtime did not complete within %v (hang in recovery path)", d)
		return nil
	}
}

func TestGroupFreeIdempotent(t *testing.T) {
	rt := newRuntime(t, hnoc.Homogeneous(4, 10))
	model := testModel(t)
	err := runRuntimeWithTimeout(t, rt, 30*time.Second, func(h *Process) error {
		var g *Group
		var err error
		if h.IsHost() || h.IsFree() {
			g, err = h.GroupCreate(model, 3, []int{1, 1, 1}, 1)
			if err != nil {
				return err
			}
		}
		if err := h.GroupFree(g); err != nil {
			return fmt.Errorf("first GroupFree: %v", err)
		}
		if err := h.GroupFree(g); err != nil {
			return fmt.Errorf("second GroupFree not idempotent: %v", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGroupFreeWithFailedMember(t *testing.T) {
	// A member dies while the group exists; GroupFree on the survivors
	// must not hang on the dissolution barrier.
	rt := newRuntime(t, hnoc.Homogeneous(4, 10))
	model := testModel(t)
	err := runRuntimeWithTimeout(t, rt, 30*time.Second, func(h *Process) error {
		var g *Group
		var err error
		if h.IsHost() || h.IsFree() {
			g, err = h.GroupCreate(model, 3, []int{1, 1, 1}, 1)
			if err != nil {
				return err
			}
		}
		if !h.IsMember(g) {
			return nil
		}
		// The first non-parent member dies mid-group.
		victim := -1
		for _, r := range g.WorldRanks() {
			if r != g.WorldRanks()[g.ParentRank()] {
				victim = r
				break
			}
		}
		if h.Rank() == victim {
			rt.InjectFailure(victim)
			return nil
		}
		return h.GroupFree(g)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGroupHealthReportsFailures(t *testing.T) {
	rt := newRuntime(t, hnoc.Homogeneous(4, 10))
	model := testModel(t)
	var once sync.Once
	var left sync.WaitGroup // members that have left the barrier below
	left.Add(3)
	err := runRuntimeWithTimeout(t, rt, 30*time.Second, func(h *Process) error {
		var g *Group
		var err error
		if h.IsHost() || h.IsFree() {
			g, err = h.GroupCreate(model, 3, []int{1, 1, 1}, 1)
			if err != nil {
				return err
			}
		}
		if !h.IsMember(g) {
			return nil
		}
		gh := g.Health()
		if len(gh.Alive) != 3 || len(gh.Failed) != 0 {
			return fmt.Errorf("fresh group health = %+v", gh)
		}
		// Every member finishes the fresh-health check before the kill —
		// and has left the barrier: one rank completing a dissemination
		// barrier does not mean the others have, and a member still inside
		// it when the victim dies rightly aborts with the failure.
		g.Comm().Barrier()
		left.Done()
		victim := g.WorldRanks()[g.Size()-1]
		if h.Rank() == g.WorldRanks()[g.ParentRank()] {
			left.Wait()
			once.Do(func() { rt.InjectFailure(victim) })
			gh = g.Health()
			if len(gh.Failed) == 0 {
				return fmt.Errorf("group healthy after member %d failed", victim)
			}
			if len(gh.Failed) != 1 || gh.Failed[0] != victim {
				return fmt.Errorf("FailedRanks = %v, want [%d]", g.Health().Failed, victim)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGroupRecreateExcludesFailed(t *testing.T) {
	rt := newRuntime(t, hnoc.Homogeneous(5, 10))
	model := testModel(t)
	var victim atomic.Int64
	victim.Store(-1)
	err := runRuntimeWithTimeout(t, rt, 30*time.Second, func(h *Process) error {
		g, err := h.GroupCreate(model, 3, []int{1, 1, 1}, 1)
		if err != nil {
			return err
		}
		if !h.IsMember(g) {
			// Not selected in round one: participate in the recreation
			// like any free process.
			ng, err := h.GroupCreate(nil)
			if err != nil {
				return err
			}
			if h.IsMember(ng) {
				ng.Comm().Barrier()
			}
			return nil
		}
		// The last member dies; the survivors recreate the group.
		v := g.WorldRanks()[g.Size()-1]
		if v == g.WorldRanks()[g.ParentRank()] {
			return fmt.Errorf("test setup: victim is the parent")
		}
		victim.Store(int64(v))
		if h.Rank() == v {
			rt.InjectFailure(v)
			return nil
		}
		for len(g.Health().Failed) == 0 { // wait until the failure is visible
			time.Sleep(time.Millisecond)
		}
		var ng *Group
		if h.Rank() == g.WorldRanks()[g.ParentRank()] {
			ng, err = h.GroupRecreate(g, model, 3, []int{1, 1, 1}, 1)
		} else {
			ng, err = h.GroupRecreate(g, nil)
		}
		if err != nil {
			return err
		}
		if h.IsMember(ng) {
			if ng.Size() != 3 {
				return fmt.Errorf("recreated group size = %d, want 3", ng.Size())
			}
			for _, r := range ng.WorldRanks() {
				if r == v {
					return fmt.Errorf("recreated group %v contains failed rank %d", ng.WorldRanks(), v)
				}
			}
			if len(ng.Health().Failed) != 0 {
				return fmt.Errorf("recreated group unhealthy: %+v", ng.Health())
			}
			// The new group is fully functional.
			ng.Comm().Barrier()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if victim.Load() < 0 {
		t.Fatal("no victim was selected")
	}
}

func TestGroupRecreateParentDeathErrors(t *testing.T) {
	// When the parent itself dies, nobody will re-run the selection: the
	// survivors must get an error from GroupRecreate, not hang waiting for
	// a group-creation message that will never arrive.
	rt := newRuntime(t, hnoc.Homogeneous(4, 10))
	model := testModel(t)
	err := runRuntimeWithTimeout(t, rt, 30*time.Second, func(h *Process) error {
		var g *Group
		var err error
		if h.IsHost() || h.IsFree() {
			g, err = h.GroupCreate(model, 3, []int{1, 1, 1}, 1)
			if err != nil {
				return err
			}
		}
		if !h.IsMember(g) {
			// No recreation will happen, so free processes must not wait
			// for one.
			return nil
		}
		parent := g.WorldRanks()[g.ParentRank()]
		if h.Rank() == parent {
			rt.InjectFailure(parent)
			return nil
		}
		for len(g.Health().Failed) == 0 { // wait until the failure is visible
			time.Sleep(time.Millisecond)
		}
		_, rerr := h.GroupRecreate(g, nil)
		if rerr == nil {
			return fmt.Errorf("GroupRecreate succeeded despite a dead parent")
		}
		if !strings.Contains(rerr.Error(), "parent") {
			return fmt.Errorf("GroupRecreate error = %q, want it to name the dead parent", rerr)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunResilientNoFailures(t *testing.T) {
	rt := newRuntime(t, hnoc.Homogeneous(4, 10))
	model := testModel(t)
	var runs atomic.Int32
	err := runRuntimeWithTimeout(t, rt, 30*time.Second, func(h *Process) error {
		return h.RunResilient(FixedPlan(model, 3, []int{1, 1, 1}, 1), func(g *Group) error {
			runs.Add(1)
			sum := g.Comm().Allreduce([]byte{1}, func(inout, in []byte) { inout[0] += in[0] })
			if int(sum[0]) != g.Size() {
				return fmt.Errorf("Allreduce = %d, want %d", sum[0], g.Size())
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := runs.Load(); got != 3 {
		t.Fatalf("work ran %d times, want 3 (once per member)", got)
	}
}

func TestRunResilientRecoversFromFailure(t *testing.T) {
	rt := newRuntime(t, hnoc.Homogeneous(5, 10))
	model := testModel(t)
	var killed atomic.Bool
	var victim atomic.Int64
	victim.Store(-1)
	var successes atomic.Int32
	err := runRuntimeWithTimeout(t, rt, 60*time.Second, func(h *Process) error {
		return h.RunResilient(FixedPlan(model, 3, []int{1, 1, 1}, 1), func(g *Group) error {
			// The first non-host member to get here on the first attempt
			// kills itself mid-work.
			if h.Rank() != HostRank && killed.CompareAndSwap(false, true) {
				victim.Store(int64(h.Rank()))
				rt.InjectFailure(h.Rank())
				panic(&mpi.KilledError{Rank: h.Rank()})
			}
			sum := g.Comm().Allreduce([]byte{1}, func(inout, in []byte) { inout[0] += in[0] })
			if int(sum[0]) != g.Size() {
				return fmt.Errorf("Allreduce = %d, want %d", sum[0], g.Size())
			}
			for _, r := range g.WorldRanks() {
				if v := victim.Load(); v >= 0 && int64(r) == v {
					return fmt.Errorf("group %v still contains failed rank %d", g.WorldRanks(), v)
				}
			}
			successes.Add(1)
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if victim.Load() < 0 {
		t.Fatal("no member was killed; the test exercised nothing")
	}
	if got := successes.Load(); got != 3 {
		t.Fatalf("successful work executions = %d, want 3 (full recreated group)", got)
	}
}

func TestRunResilientPropagatesAppError(t *testing.T) {
	rt := newRuntime(t, hnoc.Homogeneous(4, 10))
	model := testModel(t)
	err := runRuntimeWithTimeout(t, rt, 30*time.Second, func(h *Process) error {
		return h.RunResilient(FixedPlan(model, 3, []int{1, 1, 1}, 1), func(g *Group) error {
			if g.Rank() == g.ParentRank() {
				return fmt.Errorf("deliberate application error")
			}
			return nil
		})
	})
	if err == nil || err.Error() != "deliberate application error" {
		t.Fatalf("error = %v, want the application error", err)
	}
}

func TestRunResilientAbortsWhenTooFewSurvive(t *testing.T) {
	// The model needs 4 processors; with only 4 machines, losing one makes
	// recovery impossible — every process must return an error rather than
	// hang.
	rt := newRuntime(t, hnoc.Homogeneous(4, 10))
	model := testModel(t)
	var killed atomic.Bool
	err := runRuntimeWithTimeout(t, rt, 30*time.Second, func(h *Process) error {
		return h.RunResilient(FixedPlan(model, 4, []int{1, 1, 1, 1}, 1), func(g *Group) error {
			if h.Rank() != HostRank && killed.CompareAndSwap(false, true) {
				rt.InjectFailure(h.Rank())
				panic(&mpi.KilledError{Rank: h.Rank()})
			}
			g.Comm().Barrier()
			return nil
		})
	})
	if err == nil {
		t.Fatal("RunResilient succeeded with too few survivors")
	}
}

func TestTimeofExcludesFailedMachines(t *testing.T) {
	// Timeof and group selection must stop considering dead processors.
	c := hnoc.Homogeneous(4, 10)
	c.Machines[3].Speed = 1000 // rank 3 dominates any selection while alive
	rt := newRuntime(t, c)
	model := testModel(t)
	rt.InjectFailure(3)
	err := runRuntimeWithTimeout(t, rt, 30*time.Second, func(h *Process) error {
		if rt.World().IsFailed(h.Rank()) {
			return nil
		}
		var g *Group
		var err error
		if h.IsHost() || h.IsFree() {
			g, err = h.GroupCreate(model, 3, []int{1, 1, 1}, 1)
			if err != nil {
				return err
			}
		}
		if h.IsMember(g) {
			for _, r := range g.WorldRanks() {
				if r == 3 {
					return fmt.Errorf("selection %v includes failed rank 3", g.WorldRanks())
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rt.cfg.Cluster.IsMachineFailed(3) {
		t.Fatal("machine of failed rank not marked failed")
	}
}
