// Package vclock provides the virtual-time primitives used by the simulated
// execution of message-passing programs on a heterogeneous network of
// computers.
//
// Every simulated process owns a Clock. Computation advances the clock of
// the computing process only; communication transfers a timestamp from the
// sender to the receiver, so clocks stay causally consistent without a
// global event queue: two clocks can only interact through a message, and a
// message carries the sender's time of emission.
//
// The package also provides NIC bookkeeping (a serial resource modelling a
// network interface: a host transmits one message at a time even when the
// switch lets distinct host pairs communicate in parallel) and helpers to
// integrate computation time under a time-varying external load.
package vclock

import "fmt"

// Time is virtual time in seconds since the start of the simulated run.
type Time float64

// Clock is the virtual clock of one simulated process. The zero value is a
// clock at time zero, ready to use. Clock is not safe for concurrent use;
// each simulated process owns exactly one.
type Clock struct {
	now Time
}

// Now returns the current virtual time.
func (c *Clock) Now() Time { return c.now }

// Advance moves the clock forward by d seconds. Negative d panics: virtual
// time never runs backwards.
func (c *Clock) Advance(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("vclock: negative advance %v", d))
	}
	c.now += d
}

// AbsorbAtLeast moves the clock to t if t is in the clock's future. It is
// used when receiving a message stamped with its arrival time: the receiver
// cannot have observed the message before it arrived.
func (c *Clock) AbsorbAtLeast(t Time) {
	if t > c.now {
		c.now = t
	}
}

// Set forces the clock to t. It is used only when re-initialising a process
// between runs.
func (c *Clock) Set(t Time) { c.now = t }

// NIC models a serial transmission resource: a network interface that can
// carry one message at a time. Busy time accumulates even when the owner's
// clock has moved past it (the interface transmits in the background, e.g.
// during a non-blocking send).
type NIC struct {
	freeAt Time
}

// Reserve books the interface for a transfer of the given duration starting
// no earlier than t, and returns the interval [start, end) of the transfer.
func (n *NIC) Reserve(t Time, duration Time) (start, end Time) {
	if duration < 0 {
		panic(fmt.Sprintf("vclock: negative transfer duration %v", duration))
	}
	start = t
	if n.freeAt > start {
		start = n.freeAt
	}
	end = start + duration
	n.freeAt = end
	return start, end
}
