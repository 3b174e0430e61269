package hmpi

import (
	"fmt"
	"testing"

	"repro/internal/hnoc"
)

// TestSharedMachineSelection runs the full stack with more processes than
// machines: two processes on a fast machine plus one on a very slow
// machine. With two equal heavy workers to place besides the parent, the
// selection must prefer sharing the fast machine (half speed each beats
// the slow machine outright), which exercises the estimator's
// speed-sharing model end to end.
func TestSharedMachineSelection(t *testing.T) {
	c := &hnoc.Cluster{
		Remote: hnoc.Ethernet100(),
		Local:  hnoc.SharedMemory(),
		Machines: []hnoc.Machine{
			{Name: "host", Speed: 50},
			{Name: "fast", Speed: 200},
			{Name: "slow", Speed: 5},
		},
	}
	// Processes: 0 on host, 1 and 2 on fast, 3 on slow.
	rt, err := New(Config{Cluster: c, Placement: []int{0, 1, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	model := testModel(t)
	var sel []int
	err = rt.Run(func(h *Process) error {
		var g *Group
		var err error
		if h.IsHost() || h.IsFree() {
			// Parent (tiny) + two heavy workers, negligible traffic.
			g, err = h.GroupCreate(model, 3, []int{1, 500, 500}, 1)
			if err != nil {
				return err
			}
		}
		if h.IsMember(g) {
			if h.IsHost() {
				sel = g.WorldRanks()
			}
			h.Proc().Compute(float64([]int{1, 500, 500}[g.Rank()]))
			g.Comm().Barrier()
			return h.GroupFree(g)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Both heavy workers on the fast machine's processes (ranks 1 and 2),
	// in either order; the slow machine (process 3) unused.
	heavy := map[int]bool{sel[1]: true, sel[2]: true}
	if !heavy[1] || !heavy[2] {
		t.Fatalf("heavy workers on processes %v, want {1,2} (sharing the fast machine)", sel)
	}
	for _, r := range sel {
		if r == 3 {
			t.Fatalf("slow machine selected: %v", sel)
		}
	}
}

// TestPlacementRoundTrip checks a custom placement builds a world of its
// size whose co-located processes communicate.
func TestPlacementRoundTrip(t *testing.T) {
	c := hnoc.Homogeneous(2, 10)
	rt, err := New(Config{Cluster: c, Placement: []int{0, 0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if rt.World().Size() != 3 {
		t.Fatalf("world size %d", rt.World().Size())
	}
	err = rt.Run(func(h *Process) error {
		if h.Rank() == 0 || h.Rank() == 1 {
			// Co-located processes communicate through shared memory:
			// fast and cheap; just verify it works.
			comm := h.CommWorld()
			if h.Rank() == 0 {
				comm.Send(1, 0, []byte("hi"))
			} else {
				data, _ := comm.Recv(0, 0)
				if string(data) != "hi" {
					return fmt.Errorf("got %q", data)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
