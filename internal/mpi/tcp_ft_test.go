package mpi

import (
	"testing"
	"time"
)

// newTestTCP builds a TCP world of n processes and registers cleanup.
func newTestTCP(t *testing.T, n int) (*World, *tcpTransport) {
	t.Helper()
	c := testCluster(n)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	w := NewWorld(c, OneProcessPerMachine(c))
	tr, err := newTCPTransport(w)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return w, tr
}

// assertNoneFailed fails the test if any rank of w is marked failed: a
// run that completed must not have forged a failure on the way.
func assertNoneFailed(t *testing.T, w *World) {
	t.Helper()
	for r := 0; r < w.Size(); r++ {
		if kind, failed := w.FailedKind(r); failed {
			t.Errorf("rank %d marked failed (%v) by a run that completed", r, kind)
		}
	}
}

// TestTCPHeartbeatDetectsSilentPeer: a rank that stops heartbeating (a
// hung process — sockets stay open) is declared dead after the 2 s
// timeout, and a receiver blocked on it aborts.
func TestTCPHeartbeatDetectsSilentPeer(t *testing.T) {
	t.Parallel()
	w, tr := newTestTCP(t, 3)
	tr.pair(2, 0).mute.Store(true) // rank 2 hangs: silent to every peer
	tr.pair(2, 1).mute.Store(true)
	err := runWithTimeout(t, w, 30*time.Second, hangRank2(func(p *Proc) {
		p.CommWorld().Recv(2, 0) // rank 2 hangs instead of sending
	}))
	pf, ok := err.(*ProcessFailedError)
	if !ok {
		t.Fatalf("error = %v, want *ProcessFailedError", err)
	}
	if pf.Rank != 2 || pf.Kind != FailureCrash {
		t.Fatalf("failed rank = %d (%v), want 2 (crash)", pf.Rank, pf.Kind)
	}
}

// hangRank2 is a program whose rank 0 runs recv while rank 2 hangs:
// running and silent, never in an MPI wait, until recv is over. A rank 2
// that returned instead would leave rank 0's wait a deadlock.
func hangRank2(recv func(p *Proc)) func(p *Proc) error {
	hung := make(chan struct{})
	return func(p *Proc) error {
		switch p.Rank() {
		case 0:
			defer close(hung)
			recv(p)
		case 2:
			<-hung
		}
		return nil
	}
}

// TestTCPIdleClosedPairNotFailed: a connection that breaks while no
// payload flows is re-dialled by the next heartbeat, so the silence
// monitor never sees a gap and nobody is marked failed.
func TestTCPIdleClosedPairNotFailed(t *testing.T) {
	t.Parallel()
	w, tr := newTestTCP(t, 3)
	tr.pair(2, 0).close()
	time.Sleep(hbTimeout + time.Second)
	assertNoneFailed(t, w)
}

// TestTCPReconnectAfterTransientDisconnect: a transiently broken
// connection is re-dialled (bounded, with backoff) and the message still
// arrives; nobody is marked failed.
func TestTCPReconnectAfterTransientDisconnect(t *testing.T) {
	w, tr := newTestTCP(t, 2)
	err := runWithTimeout(t, w, 30*time.Second, func(p *Proc) error {
		comm := p.CommWorld()
		if p.Rank() == 0 {
			// Break the 0->1 connection, then send: the transport must
			// re-dial and deliver. Closing the conn makes the next write
			// fail (the kernel may buffer the first one).
			tr.pair(0, 1).close()
			comm.Send(1, 0, []byte{1})
			comm.Send(1, 0, []byte{2})
			return nil
		}
		a, _ := comm.Recv(0, 0)
		b, _ := comm.Recv(0, 0)
		if a[0] != 1 || b[0] != 2 {
			t.Errorf("received %v %v, want [1] [2]", a, b)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	assertNoneFailed(t, w)
}

// TestTCPFailInjection: injecting a failure tears down the corpse's
// sockets, and survivors' operations abort with *ProcessFailedError over
// the TCP transport exactly as in-process.
func TestTCPFailInjection(t *testing.T) {
	w, _ := newTestTCP(t, 3)
	err := runWithTimeout(t, w, 30*time.Second, func(p *Proc) error {
		switch p.Rank() {
		case 0:
			p.CommWorld().Recv(2, 0)
		case 1:
			time.Sleep(10 * time.Millisecond)
			w.Fail(2)
		}
		return nil
	})
	pf, ok := err.(*ProcessFailedError)
	if !ok {
		t.Fatalf("error = %v, want *ProcessFailedError", err)
	}
	if pf.Rank != 2 {
		t.Fatalf("failed rank = %d, want 2", pf.Rank)
	}
}

// TestTCPDeliverToFailedRank: sends to a failed rank from inside the
// transport are dropped, not retried into a reconnect storm.
func TestTCPDeliverToFailedRank(t *testing.T) {
	w, _ := newTestTCP(t, 2)
	w.Fail(1)
	err := runWithTimeout(t, w, 30*time.Second, func(p *Proc) error {
		if p.Rank() == 0 {
			if err := Catch(func() { p.CommWorld().Send(1, 0, []byte{1}) }); err == nil {
				t.Error("Send to failed rank succeeded")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
