package mpi

// Deadlock detection. A rank sleeps in one of two places: on its mailbox
// (Proc.sleep, under Proc.await) or on the agreement service
// (World.agree). World.live counts, in one word, the runners (high half)
// and the ranks asleep that no waker has counted awake (low half). A
// runner is a rank still running main or a frame on the wire: all ranks
// share one host process, so a frame in flight is the one waker a TCP
// world adds. A rank adds itself to the low half before it sleeps and
// departs the high half when its main returns; a waker counts its sleeper
// awake before it wakes it, under the lock the sleeper sleeps under
// (mailbox.wake, World.wakeAgreements), so a sender that sleeps right
// after waking its receiver never sees the halves meet. A frame is counted
// by its running sender before the write and departs after mailbox.put
// has counted its receiver awake, or once its write fails (tcp.go). A
// frame lost after a successful write stays counted: that world can hang,
// but never reports a false deadlock. When the halves meet, every rank
// still running sleeps with nobody left to wake it: the runner that saw
// it records every wait and aborts the world. It reads no clock.

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
	return stuck(w.live.Add(1))
}

// woken counts n sleepers awake; their waker calls it before waking them.
func (w *World) woken(n int64) {
	if n > 0 {
		w.live.Add(-n)
	}
}

// leave takes p out of the runners as its main returns.
func (w *World) leave(p *Proc) {
	p.wait = waitFor{}
	w.depart()
}

// depart takes one runner, a rank or a frame, out of live; if every
// runner left is asleep, the run is deadlocked.
func (w *World) depart() {
	if stuck(w.live.Add(-1 << 32)) {
		w.deadlocked()
	}
}

// stuck reports whether a value of World.live has runners and every one
// of them asleep.
func stuck(v int64) bool {
	return v>>32 > 0 && v>>32 == v&(1<<32-1)
}

// deadlocked records what every sleeping rank waits for and aborts the
// world. Its caller holds no mailbox lock and not agreeMu: abort takes
// them all. It reports nothing once an abort has begun, whose wakes may
// make the counts meet while the ranks already woken run.
func (w *World) deadlocked() {
	if w.aborted.Load() {
		return
	}
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
