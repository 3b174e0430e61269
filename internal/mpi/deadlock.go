package mpi

// Deadlock detection. A rank sleeps in one of two places: on its mailbox
// (mailbox.awaitArrival, under Proc.await) or on the agreement service
// (World.agree, World.agreeVote). World.live counts, in one word, the
// ranks still running main (high half) and the ranks asleep that no
// waker has counted awake (low half). A rank adds itself to the low half
// before it sleeps and leaves the high half when its main returns; a
// waker counts its sleeper awake before it wakes it, under the lock the
// sleeper sleeps under (mailbox.wake, World.wakeAgreements), so a sender
// that sleeps right after waking its receiver never sees the halves meet.
// When they meet, every rank still running sleeps with nobody left to wake
// it: the rank that saw it records every wait and aborts the world.
//
// Nothing else may wake a rank. A wire transport breaks that (its pump
// goroutines deliver messages and its heartbeat monitor fails ranks), so
// the detector is off there. It reads no clock.

import (
	"fmt"
	"strings"
)

// DeadlockError reports a run that stopped because every rank still
// running waited for a message or an agreement no running rank could
// provide.
type DeadlockError struct {
	// Waits describes each waiting rank's wait, in rank order.
	Waits []string
}

func (e *DeadlockError) Error() string {
	return "mpi: deadlock: " + strings.Join(e.Waits, "; ")
}

// waitFor is what a rank went to sleep on: a wait kind ("recv", "probe",
// "coll", "waitany" or "an agreement") and, for a receive, its selector.
type waitFor struct {
	kind string
	sel  recvSel
}

// sleep counts the calling rank asleep, under the lock it is about to
// sleep under, and reports whether that leaves no rank able to run.
func (w *World) sleep() bool {
	if w.wireTransport {
		return false
	}
	return stuck(w.live.Add(1))
}

// woken counts n sleepers awake; their waker calls it before waking them.
func (w *World) woken(n int64) {
	if n > 0 && !w.wireTransport {
		w.live.Add(-n)
	}
}

// leave takes p out of the running ranks as its main returns; if every
// rank still running is asleep, the run is deadlocked.
func (w *World) leave(p *Proc) {
	p.wait = waitFor{}
	if w.wireTransport {
		return
	}
	if stuck(w.live.Add(-1 << 32)) {
		w.deadlocked()
	}
}

// stuck reports whether a value of World.live has ranks running and every
// one of them asleep.
func stuck(v int64) bool {
	return v>>32 > 0 && v>>32 == v&(1<<32-1)
}

// deadlocked records what every sleeping rank waits for and aborts the
// world. Its caller holds no mailbox lock and not agreeMu: abort takes
// them all.
func (w *World) deadlocked() {
	var waits []string
	for _, p := range w.procs {
		switch f := p.wait; f.kind {
		case "":
		case "an agreement", "waitany":
			waits = append(waits, fmt.Sprintf("rank %d waits in %s", p.rank, f.kind))
		default:
			src, tag := "any source", "any tag"
			if f.sel.src != AnySource {
				src = fmt.Sprintf("source %d", f.sel.src)
			}
			if f.sel.tag != AnyTag {
				tag = fmt.Sprintf("tag %d", f.sel.tag)
			}
			waits = append(waits, fmt.Sprintf("rank %d waits in %s for %s %s context %d", p.rank, f.kind, src, tag, f.sel.ctx))
		}
	}
	w.deadlock.CompareAndSwap(nil, &DeadlockError{Waits: waits})
	w.abort()
}

// sleepAgreement puts world rank me to sleep on agreeCond, or reports the
// deadlock its sleep completes. Called with agreeMu held.
func (w *World) sleepAgreement(me int) {
	w.procs[me].wait = waitFor{kind: "an agreement"}
	w.agreeing++
	if w.sleep() {
		w.agreeMu.Unlock()
		w.deadlocked()
		w.agreeMu.Lock()
		return
	}
	w.agreeCond.Wait()
}

// wakeAgreements counts every rank asleep on agreeCond awake and wakes
// them: the one way an agreement's sleeper is woken. Called with agreeMu
// held.
func (w *World) wakeAgreements() {
	w.woken(w.agreeing)
	w.agreeing = 0
	w.agreeCond.Broadcast()
}
