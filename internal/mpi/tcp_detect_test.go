package mpi

import (
	"testing"
	"time"
)

// TestDefaultTCPOptionsPinned pins the documented defaults: the doc
// comment on defaultTCPOptions promises 50 ms heartbeats, a 2 s silence
// floor, three re-dials from 10 ms backoff, and a 5 s write deadline. A
// drift here is a doc bug or a silent behaviour change — fail either way.
func TestDefaultTCPOptionsPinned(t *testing.T) {
	got := defaultTCPOptions()
	want := tcpOptions{
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatTimeout:  2 * time.Second,
		DialRetries:       3,
		DialBackoff:       10 * time.Millisecond,
		WriteTimeout:      5 * time.Second,
	}
	if got != want {
		t.Fatalf("defaultTCPOptions() = %+v, want the documented %+v", got, want)
	}
}

// TestTCPNoFalsePositiveUnderHeartbeatDelay: heartbeats delayed by less
// than the documented bound (HeartbeatTimeout - HeartbeatInterval) must
// never produce a failure declaration, and traffic still flows.
func TestTCPNoFalsePositiveUnderHeartbeatDelay(t *testing.T) {
	opts := tcpOptions{
		HeartbeatInterval: 10 * time.Millisecond,
		HeartbeatTimeout:  400 * time.Millisecond,
		DialRetries:       2,
		DialBackoff:       10 * time.Millisecond,
		WriteTimeout:      5 * time.Second,
	}
	w, tr := newTestTCP(t, 3, opts)
	// 150 ms of added delay per heartbeat round: well under the 390 ms
	// documented bound, far over the heartbeat interval.
	tr.hbDelay[1].Store(int64(150 * time.Millisecond))
	err := runWithTimeout(t, w, 30*time.Second, func(p *Proc) error {
		comm := p.CommWorld()
		switch p.Rank() {
		case 0:
			// Outlast several monitor rounds at the delayed cadence before
			// expecting rank 1's message.
			time.Sleep(900 * time.Millisecond)
			data, _ := comm.Recv(1, 7)
			if len(data) != 1 || data[0] != 42 {
				t.Errorf("got %v, want [42]", data)
			}
		case 1:
			time.Sleep(900 * time.Millisecond)
			comm.Send(0, 7, []byte{42})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 3; r++ {
		if w.IsFailed(r) {
			t.Fatalf("rank %d falsely declared failed under delay below the documented bound", r)
		}
	}
}

// TestSilenceLimitAdaptsToObservedJitter feeds the interarrival
// estimators synthetic samples and checks both halves of the adaptive
// threshold's contract: a jittery-but-alive link (gaps regularly past
// the configured floor) raises its own limit above the longest observed
// gap, while a steady fast link stays pinned at the floor.
func TestSilenceLimitAdaptsToObservedJitter(t *testing.T) {
	opts := tcpOptions{
		HeartbeatInterval: 5 * time.Millisecond,
		HeartbeatTimeout:  100 * time.Millisecond,
	}
	_, tr := newTestTCP(t, 3, opts)
	base := opts.HeartbeatTimeout.Nanoseconds()

	// Link 1->0: alternate 5 ms and 130 ms gaps — the long ones exceed
	// the 100 ms floor, so a fixed threshold would declare a false
	// positive on every other heartbeat.
	now := tr.lastSeen[0][1].Load()
	for i := 0; i < 40; i++ {
		gap := 5 * time.Millisecond
		if i%2 == 1 {
			gap = 130 * time.Millisecond
		}
		now += gap.Nanoseconds()
		tr.observe(0, 1, now)
	}
	limit := tr.silenceLimit(0, 1)
	if limit <= base {
		t.Fatalf("jittery link's limit %v did not rise above the %v floor", time.Duration(limit), time.Duration(base))
	}
	if longest := (130 * time.Millisecond).Nanoseconds(); limit <= longest {
		t.Fatalf("adaptive limit %v does not cover the observed %v gaps", time.Duration(limit), time.Duration(longest))
	}

	// Link 2->0: steady 5 ms gaps — the limit must stay at the floor, so
	// detection latency for genuinely dead fast peers is unchanged.
	now = tr.lastSeen[0][2].Load()
	for i := 0; i < 40; i++ {
		now += (5 * time.Millisecond).Nanoseconds()
		tr.observe(0, 2, now)
	}
	if got := tr.silenceLimit(0, 2); got != base {
		t.Fatalf("steady link's limit = %v, want the %v floor", time.Duration(got), time.Duration(base))
	}
}

// TestTCPMonitorDisambiguatesPartition: a rank silent towards one peer
// but demonstrably alive for the others is a partition, not a crash —
// the surfaced error must carry FailurePartition.
func TestTCPMonitorDisambiguatesPartition(t *testing.T) {
	opts := tcpOptions{
		HeartbeatInterval: 10 * time.Millisecond,
		HeartbeatTimeout:  200 * time.Millisecond,
		DialRetries:       2,
		DialBackoff:       10 * time.Millisecond,
		WriteTimeout:      5 * time.Second,
	}
	w, tr := newTestTCP(t, 3, opts)
	n := 3
	// Rank 2 keeps heartbeating to rank 1 but falls silent towards rank 0:
	// an asymmetric partition. (No payload traffic flows 2->0 either.)
	tr.hbMute[2*n+0].Store(true)
	err := runWithTimeout(t, w, 30*time.Second, func(p *Proc) error {
		if p.Rank() == 0 {
			p.CommWorld().Recv(2, 0) // blocks until the monitor's verdict
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
	if pf.Kind != FailurePartition {
		t.Fatalf("failure kind = %v, want FailurePartition (rank 2 was alive for rank 1)", pf.Kind)
	}
	if kind, ok := w.FailedKind(2); !ok || kind != FailurePartition {
		t.Fatalf("world records kind %v/%v for rank 2, want FailurePartition", kind, ok)
	}
}
