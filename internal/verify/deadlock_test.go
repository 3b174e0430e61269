package verify_test

// Deadlocks are the runtime's rule, not the verifier's: World.Run ends a
// run in which no rank can move with a *mpi.DeadlockError, and a wait
// that a message in flight, a running peer or a failure can end is no
// deadlock. These tests record real runs of each case and check both
// halves: the run's outcome, and a verifier that stays silent on the
// trace, so the property has one report and not two.

import (
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/hnoc"
	"repro/internal/mpi"
	"repro/internal/trace"
	"repro/internal/verify"
)

// recordRun runs main on a recorded world of n ranks and returns Run's
// error and the trace, failing the test if Run is still blocked after 10 s.
func recordRun(t *testing.T, n int, main func(w *mpi.World, c *mpi.Comm) error) (error, *trace.Data) {
	t.Helper()
	cl := hnoc.Homogeneous(n, 10)
	w := mpi.NewWorld(cl, mpi.OneProcessPerMachine(cl))
	rec := trace.NewRecorder(n, trace.Options{})
	w.SetRecorder(rec)
	done := make(chan error, 1)
	go func() { done <- w.Run(func(p *mpi.Proc) error { return main(w, p.CommWorld()) }) }()
	select {
	case err := <-done:
		return err, rec.Data()
	case <-time.After(10 * time.Second):
		t.Fatal("Run still blocked after 10s")
		return nil, nil
	}
}

// mustVerify fails the test if the verifier finds a violation in d.
func mustVerify(t *testing.T, d *trace.Data) {
	t.Helper()
	rep, err := verify.Run(d)
	if err != nil {
		t.Fatal(err)
	}
	if v := rep.Violations(); len(v) != 0 {
		t.Fatalf("violations = %v, want none", v)
	}
}

func TestDeadlockCycle(t *testing.T) {
	// One matched exchange, then both ranks wait on each other.
	err, d := recordRun(t, 2, func(w *mpi.World, c *mpi.Comm) error {
		me := c.Rank()
		if me == 0 {
			c.Send(1, 1, []byte{1})
		} else {
			c.Recv(0, 1)
		}
		c.Recv(1-me, 5)
		return nil
	})
	var dl *mpi.DeadlockError
	if !errors.As(err, &dl) {
		t.Fatalf("Run = %v, want a *mpi.DeadlockError", err)
	}
	if !strings.Contains(err.Error(), "rank 0") || !strings.Contains(err.Error(), "rank 1") {
		t.Fatalf("deadlock does not name both ranks: %v", err)
	}
	mustVerify(t, d)
}

func TestDeadlockSatisfiedByInFlightSend(t *testing.T) {
	// Each rank sends before it waits, so each wait finds its message
	// already on the way.
	err, d := recordRun(t, 2, func(w *mpi.World, c *mpi.Comm) error {
		me := c.Rank()
		c.Send(1-me, 5, []byte{byte(me)})
		c.Recv(1-me, 5)
		return nil
	})
	if err != nil {
		t.Fatalf("satisfiable wait ended the run: %v", err)
	}
	mustVerify(t, d)
}

func TestDeadlockPeerStillRunning(t *testing.T) {
	err, d := recordRun(t, 2, func(w *mpi.World, c *mpi.Comm) error {
		switch c.Rank() {
		case 0:
			c.Recv(1, 5)
		case 1:
			time.Sleep(20 * time.Millisecond)
			c.Send(0, 5, []byte{1})
		}
		return nil
	})
	if err != nil {
		t.Fatalf("wait on a running peer ended the run: %v", err)
	}
	mustVerify(t, d)
}

func TestDeadlockKilledPeerReleases(t *testing.T) {
	// Ranks 0 and 1 wait on each other; rank 2 kills rank 1, which ends
	// both waits with a failure instead of a deadlock.
	err, d := recordRun(t, 3, func(w *mpi.World, c *mpi.Comm) error {
		switch me := c.Rank(); me {
		case 0, 1:
			if err := mpi.Catch(func() { c.Recv(1-me, 5) }); err == nil {
				t.Errorf("rank %d: receive in a kill-broken cycle succeeded", me)
			}
		case 2:
			time.Sleep(20 * time.Millisecond)
			w.RecordKill(1, 0)
			w.Fail(1)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("kill-broken cycle ended the run: %v", err)
	}
	mustVerify(t, d)
}

func TestDeadlockAnySourceReleasedByLiveRank(t *testing.T) {
	// Rank 0 waits on any source and rank 1 on rank 0; rank 2 is neither
	// waiting nor dead, and its send releases both.
	err, d := recordRun(t, 3, func(w *mpi.World, c *mpi.Comm) error {
		switch c.Rank() {
		case 0:
			c.Recv(mpi.AnySource, 5)
			c.Send(1, 6, []byte{0})
		case 1:
			c.Recv(0, 6)
		case 2:
			time.Sleep(20 * time.Millisecond)
			c.Send(0, 5, []byte{2})
		}
		return nil
	})
	if err != nil {
		t.Fatalf("satisfiable wildcard wait ended the run: %v", err)
	}
	mustVerify(t, d)
}
