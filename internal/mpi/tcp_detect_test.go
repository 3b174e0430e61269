package mpi

import (
	"testing"
	"time"
)

// TestTCPNoFalsePositiveUnderHeartbeatDelay: heartbeats delayed by less
// than the documented bound (hbTimeout - hbInterval) must never produce
// a failure declaration, and traffic still flows.
func TestTCPNoFalsePositiveUnderHeartbeatDelay(t *testing.T) {
	t.Parallel()
	w, tr := newTestTCP(t, 3)
	// 1.5 s of added delay per heartbeat round: under the 1.95 s
	// documented bound, thirty times the heartbeat interval.
	tr.hbDelay[1].Store(int64(1500 * time.Millisecond))
	err := runWithTimeout(t, w, 30*time.Second, func(p *Proc) error {
		comm := p.CommWorld()
		switch p.Rank() {
		case 0:
			// Outlast two monitor verdict windows at the delayed cadence
			// before expecting rank 1's message.
			time.Sleep(2 * hbTimeout)
			data, _ := comm.Recv(1, 7)
			if len(data) != 1 || data[0] != 42 {
				t.Errorf("got %v, want [42]", data)
			}
		case 1:
			time.Sleep(2 * hbTimeout)
			comm.Send(0, 7, []byte{42})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	assertNoneFailed(t, w)
}

// TestSilenceLimitAdaptsToObservedJitter feeds the interarrival
// estimators synthetic samples and checks both halves of the adaptive
// threshold's contract: a jittery-but-alive link (gaps regularly past
// the hbTimeout floor) raises its own limit above the longest observed
// gap, while a steady link at the heartbeat interval stays pinned at the
// floor.
func TestSilenceLimitAdaptsToObservedJitter(t *testing.T) {
	base := hbTimeout.Nanoseconds()
	longest := (hbTimeout * 13 / 10).Nanoseconds()

	// Alternate hbInterval and 2.6 s gaps — the long ones exceed the 2 s
	// floor, so a fixed threshold would declare a false positive on
	// every other heartbeat.
	var jittery pair
	now := time.Now().UnixNano()
	jittery.lastSeen.Store(now)
	for i := 0; i < 40; i++ {
		gap := hbInterval.Nanoseconds()
		if i%2 == 1 {
			gap = longest
		}
		now += gap
		jittery.observe(now)
	}
	limit := jittery.silenceLimit()
	if limit <= base {
		t.Fatalf("jittery link's limit %v did not rise above the %v floor", time.Duration(limit), time.Duration(base))
	}
	if limit <= longest {
		t.Fatalf("adaptive limit %v does not cover the observed %v gaps", time.Duration(limit), time.Duration(longest))
	}

	// Steady gaps at the heartbeat interval — the limit must stay at the
	// floor, so detection latency for genuinely dead peers is unchanged.
	var steady pair
	steady.lastSeen.Store(now)
	for i := 0; i < 40; i++ {
		now += hbInterval.Nanoseconds()
		steady.observe(now)
	}
	if got := steady.silenceLimit(); got != base {
		t.Fatalf("steady link's limit = %v, want the %v floor", time.Duration(got), time.Duration(base))
	}
}

// TestTCPMonitorDisambiguatesPartition: a rank silent towards one peer
// but demonstrably alive for the others is a partition, not a crash —
// the surfaced error must carry FailurePartition.
func TestTCPMonitorDisambiguatesPartition(t *testing.T) {
	t.Parallel()
	w, tr := newTestTCP(t, 3)
	// Rank 2 keeps heartbeating to rank 1 but falls silent towards rank 0:
	// an asymmetric partition. (No payload traffic flows 2->0 either.)
	tr.pair(2, 0).mute.Store(true)
	err := runWithTimeout(t, w, 30*time.Second, hangRank2(func(p *Proc) {
		p.CommWorld().Recv(2, 0) // blocks until the monitor's verdict
	}))
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
