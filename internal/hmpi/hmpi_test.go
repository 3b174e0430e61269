package hmpi

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/hnoc"

	"repro/internal/pmdl"
)

// testModelSrc is a small irregular model: p processors with given volumes
// exchanging boundary data in a ring.
const testModelSrc = `
algorithm Ring(int p, int v[p], int b) {
  coord I=p;
  link (L=p) {
    I>=0 && ((L+1) % p == I) : length*(b*sizeof(double)) [L]->[I];
  };
  node {I>=0: bench*(v[I]);};
  parent[0];
  scheme {
    int i, l;
    par (i = 0; i < p; i++)
      par (l = 0; l < p; l++)
        if ((l+1) % p == i) 100%%[l]->[i];
    par (i = 0; i < p; i++) 100%%[i];
  };
}
`

func testModel(t *testing.T) *pmdl.Model {
	t.Helper()
	m, err := pmdl.ParseModel(testModelSrc)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func newRuntime(t *testing.T, c *hnoc.Cluster) *Runtime {
	t.Helper()
	rt, err := New(Config{Cluster: c})
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

func TestNewValidatesConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("nil cluster accepted")
	}
	bad := hnoc.Paper9()
	bad.Machines[0].Speed = -1
	if _, err := New(Config{Cluster: bad}); err == nil {
		t.Error("invalid cluster accepted")
	}
}

func TestHostAndFreePredicates(t *testing.T) {
	rt := newRuntime(t, hnoc.Paper9())
	err := rt.Run(func(h *Process) error {
		if h.IsHost() != (h.Rank() == 0) {
			return fmt.Errorf("IsHost wrong on rank %d", h.Rank())
		}
		if h.IsHost() && h.IsFree() {
			return fmt.Errorf("host counted as free")
		}
		if !h.IsHost() && !h.IsFree() {
			return fmt.Errorf("rank %d not free initially", h.Rank())
		}
		if h.IsMember(nil) {
			return fmt.Errorf("IsMember(nil) true")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGroupCreateSelectsFastMachines(t *testing.T) {
	// Three subbodies, one big, on the paper's 9-machine network: the
	// big subbody must land on the fastest free machine (speed 176,
	// machine 6) and the slowest machine (speed 9, machine 8) must not
	// be selected.
	rt := newRuntime(t, hnoc.Paper9())
	model := testModel(t)
	var worldRanks []int
	err := rt.Run(func(h *Process) error {
		var g *Group
		var err error
		if h.IsHost() || h.IsFree() {
			g, err = h.GroupCreate(model, 3, []int{10, 10, 1000}, 100)
			if err != nil {
				return err
			}
		}
		if h.IsMember(g) {
			if g.Size() != 3 {
				return fmt.Errorf("group size %d", g.Size())
			}
			if g.Rank() == 0 && !h.IsHost() {
				return fmt.Errorf("parent slot not on host")
			}
			if h.IsHost() {
				worldRanks = g.WorldRanks()
			}
			// The communicator works.
			got := g.Comm().Bcast(0, []byte{42})
			if got[0] != 42 {
				return fmt.Errorf("bcast over group comm failed")
			}
			if err := h.GroupFree(g); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(worldRanks) != 3 {
		t.Fatalf("selection not recorded: %v", worldRanks)
	}
	// Abstract processor 2 carries volume 1000: it must run on machine 6
	// (speed 176), the fastest.
	if worldRanks[2] != 6 {
		t.Errorf("heavy abstract processor on machine %d, want 6 (selection %v)", worldRanks[2], worldRanks)
	}
	for _, r := range worldRanks {
		if r == 8 {
			t.Errorf("slowest machine (speed 9) selected: %v", worldRanks)
		}
	}
	if worldRanks[0] != HostRank {
		t.Errorf("parent abstract processor not on host: %v", worldRanks)
	}
}

func TestGroupFreeRestoresFreeness(t *testing.T) {
	rt := newRuntime(t, hnoc.Paper9())
	model := testModel(t)
	err := rt.Run(func(h *Process) error {
		for round := 0; round < 3; round++ {
			var g *Group
			var err error
			if h.IsHost() || h.IsFree() {
				g, err = h.GroupCreate(model, 4, []int{5, 5, 5, 5}, 10)
				if err != nil {
					return err
				}
			}
			if h.IsMember(g) {
				if h.IsFree() {
					return fmt.Errorf("member still free")
				}
				if err := h.GroupFree(g); err != nil {
					return err
				}
				if !h.IsHost() && !h.IsFree() {
					return fmt.Errorf("freed member not free again")
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReconRefreshesSpeeds(t *testing.T) {
	// Machine 6 (nominal 176) is loaded to 25%: after Recon every
	// process's estimate of it must be about 44.
	c := hnoc.Paper9()
	c.Machines[6].Load = hnoc.ConstantLoad{Fraction: 0.25}
	rt := newRuntime(t, c)
	err := rt.Run(func(h *Process) error {
		before := h.Speeds()
		if math.Abs(before[6]-176) > 1e-9 {
			return fmt.Errorf("initial estimate %v, want nominal 176", before[6])
		}
		if err := h.Recon(DefaultBenchmark(1)); err != nil {
			return err
		}
		after := h.Speeds()
		if math.Abs(after[6]-44) > 1e-6 {
			return fmt.Errorf("rank %d estimates loaded machine at %v, want 44", h.Rank(), after[6])
		}
		if math.Abs(after[0]-46) > 1e-6 {
			return fmt.Errorf("idle machine estimate %v, want 46", after[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestReconChangesSelection(t *testing.T) {
	// With machine 6 heavily loaded, the heavy subbody should move to
	// machine 7 (speed 106).
	c := hnoc.Paper9()
	c.Machines[6].Load = hnoc.ConstantLoad{Fraction: 0.05} // effective 8.8
	rt := newRuntime(t, c)
	model := testModel(t)
	var worldRanks []int
	err := rt.Run(func(h *Process) error {
		if err := h.Recon(DefaultBenchmark(1)); err != nil {
			return err
		}
		var g *Group
		var err error
		if h.IsHost() || h.IsFree() {
			g, err = h.GroupCreate(model, 3, []int{10, 10, 1000}, 100)
			if err != nil {
				return err
			}
		}
		if h.IsMember(g) {
			if h.IsHost() {
				worldRanks = g.WorldRanks()
			}
			return h.GroupFree(g)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if worldRanks[2] != 7 {
		t.Errorf("heavy processor on machine %d, want 7 after load shift (selection %v)", worldRanks[2], worldRanks)
	}
}

func TestTimeofPredictsAndIsLocal(t *testing.T) {
	rt := newRuntime(t, hnoc.Paper9())
	model := testModel(t)
	err := rt.Run(func(h *Process) error {
		// Any process may call Timeof.
		tSmall, err := h.Timeof(model, 3, []int{10, 10, 10}, 10)
		if err != nil {
			return err
		}
		tBig, err := h.Timeof(model, 3, []int{1000, 1000, 1000}, 10)
		if err != nil {
			return err
		}
		if tSmall <= 0 || tBig <= tSmall {
			return fmt.Errorf("Timeof not monotone: small %v big %v", tSmall, tBig)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTimeofErrorsOnBadArgs(t *testing.T) {
	rt := newRuntime(t, hnoc.Paper9())
	model := testModel(t)
	err := rt.Run(func(h *Process) error {
		if _, err := h.Timeof(model, 3, []int{10, 10}, 5); err == nil {
			return fmt.Errorf("mismatched array length accepted")
		}
		if _, err := h.Timeof(model, 3); err == nil {
			return fmt.Errorf("missing parameters accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGroupCreateAvoidsFailedProcess(t *testing.T) {
	rt := newRuntime(t, hnoc.Paper9())
	rt.InjectFailure(6) // the fastest machine dies before the run
	model := testModel(t)
	var worldRanks []int
	err := rt.Run(func(h *Process) error {
		if h.rt.world.IsFailed(h.Rank()) {
			return nil // the dead process does nothing
		}
		var g *Group
		var err error
		if h.IsHost() || h.IsFree() {
			g, err = h.GroupCreate(model, 3, []int{10, 10, 1000}, 100)
			if err != nil {
				return err
			}
		}
		if h.IsMember(g) {
			if h.IsHost() {
				worldRanks = g.WorldRanks()
			}
			return h.GroupFree(g)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range worldRanks {
		if r == 6 {
			t.Fatalf("failed machine selected: %v", worldRanks)
		}
	}
	// Heavy processor falls to the next-fastest machine, 7 (speed 106).
	if worldRanks[2] != 7 {
		t.Errorf("heavy processor on %d, want 7 (selection %v)", worldRanks[2], worldRanks)
	}
}

func TestHomogeneousClusterSelectionIsNeutral(t *testing.T) {
	// On a homogeneous cluster HMPI's choice cannot beat any other group:
	// all predicted times over same-size groups must be equal.
	rt := newRuntime(t, hnoc.Homogeneous(6, 50))
	model := testModel(t)
	err := rt.Run(func(h *Process) error {
		if !h.IsHost() {
			return nil
		}
		t1, err := h.Timeof(model, 4, []int{10, 10, 10, 10}, 10)
		if err != nil {
			return err
		}
		// Expected: perfect balance; each volume 10 at speed 50 plus
		// ring communication. The prediction must be at least the
		// compute time.
		if t1 < 10.0/50 {
			return fmt.Errorf("prediction %v below compute bound", t1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGroupCommIsolatedFromWorld(t *testing.T) {
	rt := newRuntime(t, hnoc.Paper9())
	model := testModel(t)
	err := rt.Run(func(h *Process) error {
		var g *Group
		var err error
		if h.IsHost() || h.IsFree() {
			g, err = h.GroupCreate(model, 5, []int{1, 1, 1, 1, 1}, 10)
			if err != nil {
				return err
			}
		}
		if h.IsMember(g) {
			comm := g.Comm()
			// A ring exchange over the group communicator.
			right := (g.Rank() + 1) % g.Size()
			left := (g.Rank() - 1 + g.Size()) % g.Size()
			data, _ := comm.Sendrecv(right, 5, []byte{byte(g.Rank())}, left, 5)
			if int(data[0]) != left {
				return fmt.Errorf("ring exchange got %d, want %d", data[0], left)
			}
			return h.GroupFree(g)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestMakespanPositiveAfterWork(t *testing.T) {
	rt := newRuntime(t, hnoc.Paper9())
	err := rt.Run(func(h *Process) error {
		h.Proc().Compute(10)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if rt.Makespan() <= 0 {
		t.Fatal("makespan not positive")
	}
	if rt.World().Size() != 9 {
		t.Fatalf("world size %d", rt.World().Size())
	}
}

func TestReconRejectsBadBenchmarks(t *testing.T) {
	rt := newRuntime(t, hnoc.Homogeneous(2, 10))
	err := rt.Run(func(h *Process) error {
		if err := h.Recon(BenchmarkFunc{}); err == nil {
			return fmt.Errorf("empty benchmark accepted")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGroupCreateTooFewProcesses(t *testing.T) {
	// A model demanding more abstract processors than the network has
	// processes fails cleanly everywhere: the host's selection error
	// releases the free processes waiting for the decision, so every
	// rank's GroupCreate returns an error instead of blocking.
	rt := newRuntime(t, hnoc.Homogeneous(3, 10))
	model := testModel(t)
	done := make(chan error, 1)
	go func() {
		done <- rt.Run(func(h *Process) error {
			var err error
			if h.IsHost() {
				_, err = h.GroupCreate(model, 20, make([]int, 20), 1)
			} else {
				_, err = h.GroupCreate(nil)
			}
			if err == nil {
				return fmt.Errorf("rank %d: oversized group accepted", h.Rank())
			}
			return nil
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("free processes still waiting after the host's selection failed")
	}
}

func TestGroupFreeNonMember(t *testing.T) {
	// GroupFree is idempotent: freeing a nil group (what non-selected
	// processes hold) or an already-freed group is a no-op, so SPMD code
	// can call it unconditionally.
	rt := newRuntime(t, hnoc.Homogeneous(2, 10))
	err := rt.Run(func(h *Process) error {
		if err := h.GroupFree(nil); err != nil {
			return fmt.Errorf("GroupFree(nil) = %v, want nil", err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestInjectFailureRemovesFromFreePool(t *testing.T) {
	rt := newRuntime(t, hnoc.Homogeneous(4, 10))
	rt.InjectFailure(2)
	model := testModel(t)
	err := rt.Run(func(h *Process) error {
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
				if r == 2 {
					return fmt.Errorf("failed process selected: %v", g.WorldRanks())
				}
			}
			g.Comm().Barrier()
			return h.GroupFree(g)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
