package mpi

import (
	"testing"
	"time"
)

// newTestTCP builds a TCP world with explicit failure-detection options
// and registers cleanup.
func newTestTCP(t *testing.T, n int, opts tcpOptions) (*World, *tcpTransport) {
	t.Helper()
	c := testCluster(n)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	w := NewWorld(c, OneProcessPerMachine(c))
	tr, err := newTCPTransport(w, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	return w, tr
}

// TestTCPDisconnectMarksPeerFailed: without heartbeats, a peer whose
// socket closes unexpectedly is marked failed, and a receiver blocked on
// it aborts instead of hanging — the wire-level analogue of World.Fail.
func TestTCPDisconnectMarksPeerFailed(t *testing.T) {
	w, tr := newTestTCP(t, 3, tcpOptions{}) // zero options: EOF is death
	err := runWithTimeout(t, w, 30*time.Second, func(p *Proc) error {
		switch p.Rank() {
		case 0:
			p.CommWorld().Recv(2, 0) // rank 2 will never send
		case 1:
			// Simulate rank 2 crashing: its outgoing sockets close.
			time.Sleep(20 * time.Millisecond)
			tr.closePair(2, 0)
			tr.closePair(2, 1)
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
	if !w.IsFailed(2) {
		t.Fatal("rank 2 not marked failed after its sockets closed")
	}
}

// TestTCPHeartbeatDetectsSilentPeer: with heartbeats enabled, a rank that
// stops heartbeating (a hung process — sockets stay open) is declared dead
// after the timeout, and blocked receivers abort.
func TestTCPHeartbeatDetectsSilentPeer(t *testing.T) {
	opts := tcpOptions{
		HeartbeatInterval: 10 * time.Millisecond,
		HeartbeatTimeout:  300 * time.Millisecond,
		DialRetries:       2,
		DialBackoff:       10 * time.Millisecond,
		WriteTimeout:      5 * time.Second,
	}
	w, tr := newTestTCP(t, 3, opts)
	err := runWithTimeout(t, w, 30*time.Second, func(p *Proc) error {
		switch p.Rank() {
		case 0:
			p.CommWorld().Recv(2, 0) // rank 2 hangs instead of sending
		case 1:
			tr.silenced[2].Store(true)
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

// TestTCPReconnectAfterTransientDisconnect: with heartbeats enabled, a
// transiently broken connection is re-dialled (bounded, with backoff) and
// the message still arrives; nobody is marked failed.
func TestTCPReconnectAfterTransientDisconnect(t *testing.T) {
	opts := tcpOptions{
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatTimeout:  10 * time.Second, // generous: EOF must not kill
		DialRetries:       5,
		DialBackoff:       5 * time.Millisecond,
		WriteTimeout:      5 * time.Second,
	}
	w, tr := newTestTCP(t, 2, opts)
	err := runWithTimeout(t, w, 30*time.Second, func(p *Proc) error {
		comm := p.CommWorld()
		if p.Rank() == 0 {
			// Break the 0->1 connection, then send: the transport must
			// re-dial and deliver. Closing the conn makes the next write
			// fail (the kernel may buffer the first one).
			tr.closePair(0, 1)
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
	if w.IsFailed(0) || w.IsFailed(1) {
		t.Fatal("a rank was marked failed after a transient disconnect")
	}
}

// TestTCPFailClosesSockets: injecting a failure tears down the corpse's
// sockets, and survivors' operations abort with *ProcessFailedError over
// the TCP transport exactly as in-process.
func TestTCPFailInjection(t *testing.T) {
	w, _ := newTestTCP(t, 3, defaultTCPOptions())
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

// TestTCPDeliverToFailedRankDrops: sends to a failed rank from inside the
// transport are dropped, not retried into a reconnect storm.
func TestTCPDeliverToFailedRank(t *testing.T) {
	w, _ := newTestTCP(t, 2, defaultTCPOptions())
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
