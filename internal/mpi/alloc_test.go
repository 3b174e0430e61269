package mpi

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// The in-process message path allocates what its caller keeps and nothing
// else (bufpool.go). Two halves: a send nobody waits on makes no Request,
// and a collective whose receives land in place allocates its result
// buffers, not a copy per message.

func skipUnlessAllocsAreExact(t *testing.T) {
	t.Helper()
	if raceEnabled || testing.CoverMode() != "" {
		t.Skip("allocation counts are not exact under the race detector or coverage")
	}
}

// TestSendRequestStaysOnTheStack pins the user-level floor: a message costs
// the one copy its receiver is handed (Send, Sendrecv) or nothing at all
// (IsendOwned, waited on or discarded) — the Request of a send nobody
// stores never reaches the heap. One rank sends to itself, so nothing else
// runs while testing.AllocsPerRun counts.
func TestSendRequestStaysOnTheStack(t *testing.T) {
	skipUnlessAllocsAreExact(t)
	c := testCluster(1)
	w := NewWorld(c, OneProcessPerMachine(c))
	err := w.Run(func(p *Proc) error {
		comm := p.CommWorld()
		data := make([]byte, 256)
		for _, k := range []struct {
			name string
			want float64
			f    func()
		}{
			{"IsendOwned, Wait, Recv", 0, func() { comm.IsendOwned(0, 1, data).Wait(); comm.Recv(0, 1) }},
			{"IsendOwned (discarded), Recv", 0, func() { comm.IsendOwned(0, 1, data); comm.Recv(0, 1) }},
			{"Send, Recv", 1, func() { comm.Send(0, 1, data); comm.Recv(0, 1) }},
			{"Sendrecv", 1, func() { comm.Sendrecv(0, 1, data, 0, 1) }},
		} {
			k.f() // the mailbox bucket and the envelope pool fill on the first message
			if got := testing.AllocsPerRun(100, k.f); got != k.want {
				t.Errorf("%s: %v allocations per message, want %v", k.name, got, k.want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestInPlaceCollectivesAllocateTheirResults: on nine in-process ranks a
// 512 KiB collective whose receives fold or land in place allocates the
// payload-sized buffer each rank ends up holding — Allreduce's result on
// every rank, Bcast's on every rank but the root, Reduce's accumulator on
// every rank (the root returns its own) — within a quarter for pool misses,
// plus a fixed slack. A fresh copy per message, which the pool replaced, is
// two to three times that.
func TestInPlaceCollectivesAllocateTheirResults(t *testing.T) {
	skipUnlessAllocsAreExact(t)
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection empties the pools between the warm-up and the measurement
	const n, size, slack = 9, 512 << 10, 64 << 10
	for _, k := range []struct {
		name   string
		tuning *CollTuning
		held   int // ranks left holding a buffer the call allocated
		call   func(c *Comm, data []byte)
	}{
		{"allreduce-ring", &CollTuning{Allreduce: AllreduceRing}, n, func(c *Comm, data []byte) { c.Allreduce(data, SumFloat64) }},
		{"allreduce-recdbl", &CollTuning{Allreduce: AllreduceRecursiveDoubling}, n, func(c *Comm, data []byte) { c.Allreduce(data, SumFloat64) }},
		{"bcast-segmented", &CollTuning{Bcast: BcastSegmented}, n - 1, func(c *Comm, data []byte) { c.Bcast(0, data) }},
		{"reduce", nil, n, func(c *Comm, data []byte) { c.Reduce(0, data, SumFloat64) }},
	} {
		cl := testCluster(n)
		w := NewWorld(cl, OneProcessPerMachine(cl))
		w.SetCollTuning(k.tuning)
		var before, after runtime.MemStats
		err := w.Run(func(p *Proc) error {
			c := p.CommWorld()
			data := goldenPayload(c.Rank(), 0, size)
			k.call(c, data) // the warm-up: the pools fill
			// No rank leaves a barrier before every rank has entered it, so
			// rank 0 reads the counter while the others wait in the second
			// barrier, and again once all of them are through the call.
			c.Barrier()
			if c.Rank() == 0 {
				runtime.ReadMemStats(&before)
			}
			c.Barrier()
			k.call(c, data)
			c.Barrier()
			if c.Rank() == 0 {
				runtime.ReadMemStats(&after)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		got := int(after.TotalAlloc - before.TotalAlloc)
		if budget := k.held*size*5/4 + slack; got > budget {
			t.Errorf("%s: one call allocated %d bytes for %d result bytes, budget %d", k.name, got, k.held*size, budget)
		}
	}
}
