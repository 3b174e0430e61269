package mpi

import (
	"errors"
	"testing"
	"time"
)

// runBounded runs main on a fresh four-rank world and returns Run's error,
// failing the test if Run is still blocked after 10 s.
func runBounded(t *testing.T, main func(p *Proc) error) error {
	t.Helper()
	w := newTestWorld(t, 4)
	done := make(chan error, 1)
	go func() { done <- w.Run(main) }()
	select {
	case err := <-done:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("Run still blocked after 10s")
		return nil
	}
}

// TestDeadlockDetected: a run in which every rank still running waits for
// what no running rank can provide ends with a *DeadlockError naming each
// wait, the same text on every run.
func TestDeadlockDetected(t *testing.T) {
	for _, tc := range []struct {
		name string
		rank func(c *Comm)
		want string
	}{
		{"head-to-head", func(c *Comm) {
			if me := c.Rank(); me < 2 {
				c.Recv(1-me, 5)
				c.Send(1-me, 5, nil)
			}
		},
			"mpi: deadlock: rank 0 waits in recv for source 1 tag 5 context 0; rank 1 waits in recv for source 0 tag 5 context 0"},
		{"ring tags 3 and 4", func(c *Comm) {
			n, me := c.Size(), c.Rank()
			c.Send((me+1)%n, 3, nil)
			c.Recv((me+n-1)%n, 4)
		},
			"mpi: deadlock: rank 0 waits in recv for source 3 tag 4 context 0; rank 1 waits in recv for source 0 tag 4 context 0; rank 2 waits in recv for source 1 tag 4 context 0; rank 3 waits in recv for source 2 tag 4 context 0"},
		{"barrier on rank 0", func(c *Comm) {
			if c.Rank() == 0 {
				c.Barrier()
			}
		},
			"mpi: deadlock: rank 0 waits in coll for source 3 tag -100 context 0"},
		{"any source nobody sends", func(c *Comm) {
			if c.Rank() == 0 {
				c.Recv(AnySource, 0)
			}
		},
			"mpi: deadlock: rank 0 waits in recv for any source tag 0 context 0"},
		{"agreement beside a receive", func(c *Comm) {
			if c.Rank() == 3 {
				c.Recv(0, 0)
				return
			}
			c.AgreeFailed()
		},
			"mpi: deadlock: rank 0 waits in an agreement; rank 1 waits in an agreement; rank 2 waits in an agreement; rank 3 waits in recv for source 0 tag 0 context 0"},
		// A cycle of receives, or tags that differ per rank, found at run
		// time.
		{"receive-only cycle", func(c *Comm) {
			if me := c.Rank(); me < 2 {
				c.Recv(1-me, 9)
			}
		},
			"mpi: deadlock: rank 0 waits in recv for source 1 tag 9 context 0; rank 1 waits in recv for source 0 tag 9 context 0"},
		{"sends with a mismatched tag", func(c *Comm) {
			if me := c.Rank(); me < 2 {
				c.Send(1-me, 8, nil)
				c.Recv(1-me, 5)
			}
		},
			"mpi: deadlock: rank 0 waits in recv for source 1 tag 5 context 0; rank 1 waits in recv for source 0 tag 5 context 0"},
		{"disjoint send and receive tags", func(c *Comm) {
			if me := c.Rank(); me < 2 {
				c.Send(1-me, 7, nil)
				c.Recv(1-me, 8)
			}
		},
			"mpi: deadlock: rank 0 waits in recv for source 1 tag 8 context 0; rank 1 waits in recv for source 0 tag 8 context 0"},
		{"sendrecv with disjoint tags", func(c *Comm) {
			if me := c.Rank(); me < 2 {
				c.Sendrecv(1-me, 7, nil, 1-me, 8)
			}
		},
			"mpi: deadlock: rank 0 waits in recv for source 1 tag 8 context 0; rank 1 waits in recv for source 0 tag 8 context 0"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := runBounded(t, func(p *Proc) error {
				tc.rank(p.CommWorld())
				return nil
			})
			var d *DeadlockError
			if !errors.As(err, &d) {
				t.Fatalf("Run = %v, want a *DeadlockError", err)
			}
			if err.Error() != tc.want {
				t.Fatalf("Run = %q\nwant  %q", err, tc.want)
			}
		})
	}
}

// TestDeadlockRankErrorFirst: a rank that returns an error while its peer
// waits on it ends the run with that error, not the deadlock it leaves.
func TestDeadlockRankErrorFirst(t *testing.T) {
	bad := errors.New("rank 1 gave up")
	err := runBounded(t, func(p *Proc) error {
		switch p.Rank() {
		case 0:
			p.CommWorld().Recv(1, 0)
		case 1:
			return bad
		}
		return nil
	})
	if err != bad {
		t.Fatalf("Run = %v, want %v", err, bad)
	}
}

// TestDeadlockNotReported: waits that a message already sent, a rank
// still running or a failure can end are not deadlocks, and a sender that
// sleeps right after waking its receiver leaves no false report.
func TestDeadlockNotReported(t *testing.T) {
	for _, tc := range []struct {
		name string
		rank func(p *Proc, c *Comm) error
	}{
		{"message in flight", func(p *Proc, c *Comm) error {
			if me := c.Rank(); me < 2 {
				c.Send(1-me, 5, nil)
				c.Recv(1-me, 5)
			}
			return nil
		}},
		{"peer still running", func(p *Proc, c *Comm) error {
			switch c.Rank() {
			case 0:
				c.Recv(1, 5)
			case 1:
				time.Sleep(20 * time.Millisecond)
				c.Send(0, 5, nil)
			}
			return nil
		}},
		{"killed peer", func(p *Proc, c *Comm) error {
			switch c.Rank() {
			case 0:
				if err := Catch(func() { c.Recv(1, 5) }); err == nil {
					t.Error("receive from a failed rank succeeded")
				}
			case 1:
				time.Sleep(20 * time.Millisecond)
				p.world.Fail(1)
			}
			return nil
		}},
		{"any source sent by a live rank", func(p *Proc, c *Comm) error {
			switch c.Rank() {
			case 0:
				c.Recv(AnySource, 5)
			case 3:
				time.Sleep(20 * time.Millisecond)
				c.Send(0, 5, nil)
			}
			return nil
		}},
		{"ping-pong", func(p *Proc, c *Comm) error {
			if me := c.Rank(); me < 2 {
				for i := 0; i < 1000; i++ {
					if me == i%2 {
						c.Send(1-me, 0, nil)
					} else {
						c.Recv(1-me, 0)
					}
				}
			}
			c.Barrier()
			c.AgreeFailed()
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := runBounded(t, func(p *Proc) error { return tc.rank(p, p.CommWorld()) }); err != nil {
				t.Fatalf("Run = %v", err)
			}
		})
	}
}
