package hmpi

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/hnoc"
	"repro/internal/mpi"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// TestRunResilientDegradeReselect: a chronically lossy link between two
// group members accumulates retransmissions past the threshold; the
// resilient loop must then agree on a degrade-reselect, fold the pair into
// the cost model, and recreate the group so the new selection no longer
// places both endpoints together. The run completes correctly throughout —
// no process ever fails.
func TestRunResilientDegradeReselect(t *testing.T) {
	rt := newRuntime(t, hnoc.Homogeneous(5, 10))
	model := testModel(t)

	// The lossy pair (world ranks) is chosen once the first group is known:
	// its last two members. Until then (-1) no frames are touched. Every
	// frame between the pair is dropped on its first three attempts, so
	// each one costs three retransmissions — enough to trip the default
	// threshold with a single exchange.
	var dropA, dropB atomic.Int64
	dropA.Store(-1)
	dropB.Store(-1)
	rt.World().SetLinkFilter(func(src, dst int, at vclock.Time, seq int64, attempt int) mpi.LinkOutcome {
		a, b := int(dropA.Load()), int(dropB.Load())
		if a >= 0 && ((src == a && dst == b) || (src == b && dst == a)) {
			return mpi.LinkOutcome{Drop: attempt < 3}
		}
		return mpi.LinkOutcome{}
	})
	rt.EnableDegradation()
	rec := rt.EnableRecorder("degrade-test", trace.Options{})

	var mu sync.Mutex
	var lastRanks []int
	var runs atomic.Int32
	err := runRuntimeWithTimeout(t, rt, 60*time.Second, func(h *Process) error {
		return h.RunResilient(FixedPlan(model, 3, []int{1, 1, 1}, 1), func(g *Group) error {
			runs.Add(1)
			ranks := g.WorldRanks()
			if dropA.Load() < 0 {
				// First attempt: every member derives the same pair from
				// the agreed member list, so the stores are idempotent.
				dropB.Store(int64(ranks[len(ranks)-1]))
				dropA.Store(int64(ranks[len(ranks)-2]))
			}
			mu.Lock()
			lastRanks = append([]int(nil), ranks...)
			mu.Unlock()
			// Pairwise byte exchange: guarantees frames in both directions
			// across every member pair, the lossy one included.
			comm := g.Comm()
			me := g.Rank()
			for r := 0; r < g.Size(); r++ {
				if r == me {
					continue
				}
				if me < r {
					comm.Send(r, 50, []byte{byte(me)})
					if data, _ := comm.Recv(r, 51); data[0] != byte(r) {
						t.Errorf("pair exchange corrupted: got %d from %d", data[0], r)
					}
				} else {
					if data, _ := comm.Recv(r, 50); data[0] != byte(r) {
						t.Errorf("pair exchange corrupted: got %d from %d", data[0], r)
					}
					comm.Send(r, 51, []byte{byte(me)})
				}
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}

	a, b := int(dropA.Load()), int(dropB.Load())
	if a < 0 || b < 0 {
		t.Fatal("lossy pair never chosen; the first group did not run")
	}
	// The pair was flagged and folded into the model (placement is one
	// process per machine, so machine indexes equal world ranks).
	want := [2]int{a, b}
	if want[0] > want[1] {
		want[0], want[1] = want[1], want[0]
	}
	pairs := rt.DegradedPairs()
	if len(pairs) != 1 || pairs[0] != want {
		t.Fatalf("DegradedPairs = %v, want [%v]", pairs, want)
	}
	// The reselected group routed around the degraded link: its final
	// member list must not contain both endpoints.
	mu.Lock()
	final := lastRanks
	mu.Unlock()
	hasA, hasB := false, false
	for _, r := range final {
		hasA = hasA || r == a
		hasB = hasB || r == b
	}
	if hasA && hasB {
		t.Fatalf("final group %v still contains both endpoints of degraded pair %v", final, want)
	}
	// Two attempts of three members each.
	if got := runs.Load(); got != 6 {
		t.Fatalf("work ran %d times, want 6 (three members, two attempts)", got)
	}
	// The trace tells the story: retransmissions, then the agreed
	// degrade-reselect, then the recreation.
	d := rec.Data()
	count := func(k trace.Kind) int {
		n := 0
		for _, evs := range d.PerRank {
			for i := range evs {
				if evs[i].Kind == k {
					n++
				}
			}
		}
		return n
	}
	if got := count(trace.KindRetransmit); got < 3 {
		t.Errorf("retransmit events = %d, want >= 3", got)
	}
	if got := count(trace.KindDegrade); got != 1 {
		t.Errorf("degrade_reselect events = %d, want 1 (one applied pair, host-recorded)", got)
	}
	if got := count(trace.KindGroupRecreate); got != 1 {
		t.Errorf("group_recreate events = %d, want 1", got)
	}
	if count(trace.KindLinkFault) == 0 {
		t.Error("no link_fault_injected events recorded")
	}
	// The degrade event carries the pair and the model slowdown factor.
	for _, evs := range d.PerRank {
		for _, e := range evs {
			if e.Kind != trace.KindDegrade {
				continue
			}
			if int(e.Peer) != want[0] || int(e.A1) != want[1] {
				t.Errorf("degrade event pair = (%d,%d), want %v", e.Peer, e.A1, want)
			}
			if f := trace.BitsFloat(e.A0); f != 8 {
				t.Errorf("degrade event factor = %v, want 8", f)
			}
		}
	}
}

// TestDegradeObserveMapsToMachines: the tracker maps world-rank links
// through the placement and ignores below-threshold links, same-machine
// pairs and already-applied pairs.
func TestDegradeObserveMapsToMachines(t *testing.T) {
	c := hnoc.Homogeneous(3, 10)
	rt, err := New(Config{Cluster: c, Placement: []int{0, 0, 1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Finalize()
	rt.EnableDegradation()
	d := rt.degrade

	below := mpi.LinkStats{Retransmits: 2}
	at := mpi.LinkStats{Retransmits: 3}
	if p := d.pending(map[[2]int]mpi.LinkStats{{0, 2}: below}); len(p) != 0 {
		t.Fatalf("below-threshold stats flagged %v", p)
	}
	if p := d.pending(map[[2]int]mpi.LinkStats{{0, 1}: at}); len(p) != 0 {
		t.Fatalf("same-machine pair flagged: %v", p) // ranks 0 and 1 share machine 0
	}
	// Machines 1 and 0, normalised to (0,1); both directions are one pair.
	stats := map[[2]int]mpi.LinkStats{{2, 0}: at, {0, 2}: at, {1, 3}: below}
	pairs := d.apply(stats)
	if len(pairs) != 1 || pairs[0] != [2]int{0, 1} {
		t.Fatalf("applied pairs = %v, want [(0,1)]", pairs)
	}
	if rt.cfg.Cluster.LinkDegradation(0, 1) != degradeFactor {
		t.Fatalf("cluster degradation factor = %v, want %v", rt.cfg.Cluster.LinkDegradation(0, 1), degradeFactor)
	}
	// Counters only grow: an applied pair must not pend again (termination
	// of the resilient loop depends on this).
	if p := d.pending(map[[2]int]mpi.LinkStats{{2, 0}: {Retransmits: 99}}); len(p) != 0 {
		t.Fatalf("applied pair re-flagged: %v", p)
	}
	if got := rt.DegradedPairs(); len(got) != 1 || got[0] != [2]int{0, 1} {
		t.Fatalf("DegradedPairs = %v, want [(0,1)]", got)
	}
}
