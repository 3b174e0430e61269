package mpi

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// runWithTimeout runs the world and fails the test if it does not complete
// within the deadline — the way a hang in a failure path is detected.
func runWithTimeout(t *testing.T, w *World, d time.Duration, main func(p *Proc) error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- w.Run(main) }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatalf("world.Run did not complete within %v (hang in failure path)", d)
		return nil
	}
}

func isFailedErr(err error) bool {
	var pf *ProcessFailedError
	return errors.As(err, &pf)
}

func TestRevokeAbortsBlockedReceive(t *testing.T) {
	w := newTestWorld(t, 3)
	var mu sync.Mutex
	got := map[int]error{}
	err := runWithTimeout(t, w, 10*time.Second, func(p *Proc) error {
		comm := p.CommWorld()
		switch p.Rank() {
		case 0:
			// Give rank 1 a moment to block, then revoke.
			time.Sleep(10 * time.Millisecond)
			comm.Revoke()
			comm.Revoke() // idempotent
		case 1:
			err := Catch(func() { comm.Recv(2, 7) }) // rank 2 never sends
			mu.Lock()
			got[1] = err
			mu.Unlock()
		case 2:
			// Returns without sending; must not hang on anything.
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var rv *RevokedError
	if !errors.As(got[1], &rv) {
		t.Fatalf("blocked receive on revoked comm returned %v, want *RevokedError", got[1])
	}
}

func TestRevokedCommRejectsNewOperations(t *testing.T) {
	w := newTestWorld(t, 2)
	err := runWithTimeout(t, w, 10*time.Second, func(p *Proc) error {
		comm := p.CommWorld()
		comm.Revoke()
		if err := Catch(func() { comm.Send(1-p.Rank(), 0, []byte{1}) }); err == nil {
			return fmt.Errorf("Send on revoked comm succeeded")
		} else if _, ok := err.(*RevokedError); !ok {
			return fmt.Errorf("Send on revoked comm returned %v, want *RevokedError", err)
		}
		if err := Catch(func() { comm.Recv(1-p.Rank(), 0) }); err == nil {
			return fmt.Errorf("Recv on revoked comm succeeded")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAgreeFailedConverges(t *testing.T) {
	w := newTestWorld(t, 4)
	w.Fail(3)
	var mu sync.Mutex
	views := map[int][]int{}
	err := runWithTimeout(t, w, 10*time.Second, func(p *Proc) error {
		if p.Rank() == 3 {
			return nil
		}
		failed := p.CommWorld().AgreeFailed()
		mu.Lock()
		views[p.Rank()] = failed
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		if !reflect.DeepEqual(views[r], []int{3}) {
			t.Fatalf("rank %d agreed on %v, want [3]", r, views[r])
		}
	}
}

func TestAgreeFailedDuringAgreement(t *testing.T) {
	// Rank 3 dies instead of entering the agreement: the survivors must
	// still converge, on identical sets that include rank 3.
	w := newTestWorld(t, 4)
	var mu sync.Mutex
	views := map[int][]int{}
	err := runWithTimeout(t, w, 10*time.Second, func(p *Proc) error {
		if p.Rank() == 3 {
			time.Sleep(10 * time.Millisecond) // let survivors block first
			w.Fail(3)
			return nil
		}
		failed := p.CommWorld().AgreeFailed()
		mu.Lock()
		views[p.Rank()] = failed
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := views[0]
	if len(want) == 0 || want[len(want)-1] != 3 {
		t.Fatalf("agreement %v does not include failed rank 3", want)
	}
	for r := 1; r < 3; r++ {
		if !reflect.DeepEqual(views[r], want) {
			t.Fatalf("rank %d agreed on %v, rank 0 on %v: no agreement", r, views[r], want)
		}
	}
}

func TestShrinkRestoresCollectives(t *testing.T) {
	w := newTestWorld(t, 4)
	w.Fail(2)
	err := runWithTimeout(t, w, 10*time.Second, func(p *Proc) error {
		if p.Rank() == 2 {
			return nil
		}
		comm := p.CommWorld()
		// The full communicator is broken: collectives abort.
		if err := Catch(func() { comm.Barrier() }); !isFailedErr(err) {
			return fmt.Errorf("rank %d: Barrier on broken comm returned %v, want *ProcessFailedError", p.Rank(), err)
		}
		sc := comm.Shrink()
		if sc.Size() != 3 {
			return fmt.Errorf("shrunk comm has %d members, want 3", sc.Size())
		}
		if wr := sc.s.members[sc.Rank()]; wr != p.Rank() {
			return fmt.Errorf("rank mapping broken: world rank %d at shrunk rank %d", wr, sc.Rank())
		}
		// Full functionality is restored on the shrunk communicator.
		data := sc.Bcast(0, []byte{42})
		if len(data) != 1 || data[0] != 42 {
			return fmt.Errorf("Bcast over shrunk comm returned %v", data)
		}
		sum := sc.Allreduce([]byte{1}, func(inout, in []byte) { inout[0] += in[0] })
		if sum[0] != 3 {
			return fmt.Errorf("Allreduce over shrunk comm = %d, want 3", sum[0])
		}
		sc.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestShrinkOnRevokedComm(t *testing.T) {
	// ULFM requires Shrink (and agreement) to work on revoked
	// communicators: that is how survivors escape.
	w := newTestWorld(t, 3)
	w.Fail(2)
	err := runWithTimeout(t, w, 10*time.Second, func(p *Proc) error {
		if p.Rank() == 2 {
			return nil
		}
		comm := p.CommWorld()
		comm.Revoke()
		sc := comm.Shrink()
		if sc.Size() != 2 {
			return fmt.Errorf("shrunk comm has %d members, want 2", sc.Size())
		}
		sc.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCollectivesAbortOnFailure checks the satellite requirement: a
// mid-operation failure must surface as a *ProcessFailedError on every
// survivor — no collective may hang. Rank n-1 dies concurrently with the
// survivors' collective; each survivor retries the collective until it
// observes the failure (the ULFM pattern — a collective is permitted to
// complete on members whose part of the tree never touches the corpse, so
// a single call need not fail everywhere, but a bounded retry loop must).
func TestCollectivesAbortOnFailure(t *testing.T) {
	op := func(inout, in []byte) {
		for i := range inout {
			inout[i] += in[i]
		}
	}
	cases := []struct {
		name string
		run  func(c *Comm)
	}{
		{"Barrier", func(c *Comm) { c.Barrier() }},
		{"Bcast", func(c *Comm) { c.Bcast(0, []byte{1, 2}) }},
		{"Reduce", func(c *Comm) { c.Reduce(0, []byte{1}, op) }},
		{"Allreduce", func(c *Comm) { c.Allreduce([]byte{1}, op) }},
		{"Gather", func(c *Comm) { c.Gather(0, []byte{byte(c.Rank())}) }},
		{"Scatter", func(c *Comm) {
			var parts [][]byte
			if c.Rank() == 0 {
				parts = make([][]byte, c.Size())
				for i := range parts {
					parts[i] = []byte{byte(i)}
				}
			}
			c.Scatter(0, parts)
		}},
		{"Allgather", func(c *Comm) { c.Allgather([]byte{byte(c.Rank())}) }},
		{"Alltoall", func(c *Comm) {
			parts := make([][]byte, c.Size())
			for i := range parts {
				parts[i] = []byte{byte(i)}
			}
			c.Alltoall(parts)
		}},
		{"Scan", func(c *Comm) { c.Scan([]byte{1}, op) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := newTestWorld(t, 4)
			victim := 3
			var mu sync.Mutex
			errs := map[int]error{}
			err := runWithTimeout(t, w, 30*time.Second, func(p *Proc) error {
				comm := p.CommWorld()
				if p.Rank() == victim {
					// One clean round, then die mid-run.
					tc.run(comm)
					w.Fail(victim)
					return nil
				}
				// Every round races with the failure; retry until it is
				// observed. Every survivor must get there without
				// hanging.
				for {
					err := Catch(func() { tc.run(comm) })
					if err != nil {
						mu.Lock()
						errs[p.Rank()] = err
						mu.Unlock()
						return nil
					}
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			for r := 0; r < victim; r++ {
				if !isFailedErr(errs[r]) {
					t.Fatalf("survivor %d: error = %v, want *ProcessFailedError", r, errs[r])
				}
			}
		})
	}
}

func TestCatchPassesUnrelatedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Catch swallowed an unrelated panic")
		}
	}()
	Catch(func() { panic("boom") })
}

func TestWorldFailedRanks(t *testing.T) {
	w := newTestWorld(t, 5)
	w.Fail(3)
	w.Fail(1)
	w.Fail(3) // idempotent
	var got []int
	for r := 0; r < w.Size(); r++ {
		if w.IsFailed(r) {
			got = append(got, r)
		}
	}
	if !reflect.DeepEqual(got, []int{1, 3}) {
		t.Fatalf("failed ranks = %v, want [1 3]", got)
	}
}

// TestFailStateFirstMarkWins: concurrent Fail and FailPartitioned calls
// on one rank mark it once. The hooks run once, and FailedKind, the error
// a peer gets and the error a wait on the rank's own mailbox panics with
// all report the kind of the mark that won.
func TestFailStateFirstMarkWins(t *testing.T) {
	for round := 0; round < 50; round++ {
		w := newTestWorld(t, 3)
		var hooks sync.WaitGroup
		hooks.Add(1) // a second run of the hooks panics on a negative count
		w.OnFail(func(int) { hooks.Done() })
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if i%2 == 0 {
					w.Fail(1)
				} else {
					w.FailPartitioned(1)
				}
			}()
		}
		wg.Wait()
		hooks.Wait()
		kind, failed := w.FailedKind(1)
		if !failed || !w.IsFailed(1) || w.IsFailed(0) || w.IsFailed(2) {
			t.Fatalf("round %d: failed ranks wrong after marking rank 1", round)
		}
		if got := w.failedError(1).Kind; got != kind {
			t.Fatalf("round %d: a peer's error reports %v, FailedKind %v", round, got, kind)
		}
		if err, _ := w.procs[1].mbox.closedErr().(*ProcessFailedError); err == nil || err.Kind != kind {
			t.Fatalf("round %d: the closed mailbox reports %v, FailedKind %v", round, w.procs[1].mbox.closedErr(), kind)
		}
	}
}

// TestFailStateOutOfRange: a rank outside the world is not failed.
func TestFailStateOutOfRange(t *testing.T) {
	w := newTestWorld(t, 3)
	w.Fail(2)
	for _, r := range []int{-1, 3, 1 << 40} {
		if w.IsFailed(r) {
			t.Errorf("IsFailed(%d) = true", r)
		}
		if kind, failed := w.FailedKind(r); failed || kind != FailureCrash {
			t.Errorf("FailedKind(%d) = %v, %v", r, kind, failed)
		}
	}
}

// TestAbortedWaitLeavesTheQueue: a Wait that aborts — here the only possible
// sender of an Irecv dies — takes its request out of the progress engine. A
// corpse left there would claim the next matching message ahead of the
// receive it was meant for.
func TestAbortedWaitLeavesTheQueue(t *testing.T) {
	w := newTestWorld(t, 2)
	err := runWithTimeout(t, w, 10*time.Second, func(p *Proc) error {
		if p.Rank() != 0 {
			return nil
		}
		comm := p.CommWorld()
		r := comm.Irecv(AnySource, 5)
		w.Fail(1)
		if err := Catch(func() { r.Wait() }); !isFailedErr(err) {
			return fmt.Errorf("Wait on a receive from a dead sender returned %v, want *ProcessFailedError", err)
		}
		if n := len(p.eng.recvQ); n != 0 {
			return fmt.Errorf("%d requests still queued after the aborted Wait", n)
		}
		comm.Send(0, 5, []byte("next"))
		if data, _ := comm.Recv(0, 5); string(data) != "next" {
			return fmt.Errorf("the receive after the aborted Wait got %q", data)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
