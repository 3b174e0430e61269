package vclock

import (
	"testing"
	"testing/quick"
)

func TestClockZeroValue(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("zero clock reads %v, want 0", c.Now())
	}
}

func TestClockAdvance(t *testing.T) {
	var c Clock
	c.Advance(1.5)
	c.Advance(0)
	c.Advance(2.5)
	if got := c.Now(); got != 4.0 {
		t.Fatalf("clock = %v, want 4.0", got)
	}
}

func TestClockAdvanceNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	var c Clock
	c.Advance(-1)
}

func TestAbsorbAtLeast(t *testing.T) {
	var c Clock
	c.Advance(10)
	c.AbsorbAtLeast(5) // in the past: no effect
	if c.Now() != 10 {
		t.Fatalf("absorbing past time moved clock to %v", c.Now())
	}
	c.AbsorbAtLeast(12)
	if c.Now() != 12 {
		t.Fatalf("absorbing future time gave %v, want 12", c.Now())
	}
}

func TestClockSet(t *testing.T) {
	var c Clock
	c.Advance(3)
	c.Set(0)
	if c.Now() != 0 {
		t.Fatalf("Set(0) gave %v", c.Now())
	}
}

func TestNICSerialisesTransfers(t *testing.T) {
	var n NIC
	s1, e1 := n.Reserve(0, 2)
	if s1 != 0 || e1 != 2 {
		t.Fatalf("first transfer scheduled [%v,%v), want [0,2)", s1, e1)
	}
	// Requested at time 1, but the NIC is busy until 2.
	s2, e2 := n.Reserve(1, 3)
	if s2 != 2 || e2 != 5 {
		t.Fatalf("second transfer scheduled [%v,%v), want [2,5)", s2, e2)
	}
	// Requested after the NIC went idle: starts immediately.
	s3, e3 := n.Reserve(10, 1)
	if s3 != 10 || e3 != 11 {
		t.Fatalf("third transfer scheduled [%v,%v), want [10,11)", s3, e3)
	}
	if n.freeAt != 11 {
		t.Fatalf("idle at %v, want 11", n.freeAt)
	}
}

func TestNICNegativeDurationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Reserve with negative duration did not panic")
		}
	}()
	var n NIC
	n.Reserve(0, -1)
}

// Property: a NIC never schedules a transfer to start before it was
// requested, never overlaps transfers, and its idle time is non-decreasing.
func TestNICReservationInvariants(t *testing.T) {
	f := func(reqs []struct {
		At  uint16
		Dur uint16
	}) bool {
		var n NIC
		prevEnd := Time(0)
		for _, r := range reqs {
			at := Time(r.At)
			dur := Time(r.Dur) / 16
			start, end := n.Reserve(at, dur)
			if start < at || start < prevEnd {
				return false
			}
			if end != start+dur {
				return false
			}
			if n.freeAt != end {
				return false
			}
			prevEnd = end
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
