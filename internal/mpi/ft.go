package mpi

// Fault-tolerance extension in the style of ULFM (User-Level Failure
// Mitigation, the fault-tolerance chapter proposed for the MPI standard
// out of FT-MPI): communicator revocation, shrinking, and collective
// agreement on the failed set. The paper defers fault tolerance to future
// work ("an FT-MPI-style extension"); this file supplies the MPI-level
// half of that extension. The HMPI-level half — re-running the
// performance-model-driven selection over the surviving processors — lives
// in internal/hmpi.
//
// Semantics, mirroring ULFM:
//
//   - A failure surfaces as a *ProcessFailedError on any operation that
//     needs the failed process (and, for collectives, on any operation
//     over a communicator containing it).
//   - Revoke marks a communicator dead for all members: every pending and
//     future operation on it aborts with a *RevokedError. Survivors that
//     detect a failure revoke the communicator so peers blocked on
//     still-alive processes do not hang waiting for messages that will
//     never come.
//   - AgreeFailed is a collective over the communicator that returns the
//     same set of failed members on every survivor. It works on revoked
//     communicators, and treats failed members as participating trivially.
//   - Shrink agrees on the failed set and returns a fresh communicator
//     over the survivors, on which full functionality is restored.

import (
	"math"
	"sort"

	"repro/internal/trace"
	"repro/internal/vclock"
)

// RevokedError reports an operation on a revoked communicator.
type RevokedError struct {
	Ctx int64 // context id of the revoked communicator
}

func (e *RevokedError) Error() string {
	return "mpi: communicator has been revoked"
}

// KilledError terminates a process killed by fault injection (see
// internal/chaos). Run treats it as a silent death: the corpse reports no
// error; the failure surfaces on the peers that needed it.
type KilledError struct {
	Rank int // world rank of the killed process
}

func (e *KilledError) Error() string {
	return "mpi: process killed by fault injection"
}

// Catch runs f and converts the fault-tolerance panics — *ProcessFailedError
// and *RevokedError — into error returns, leaving other panics alone. It is
// the hook through which an application survives a failure instead of
// aborting: wrap the communication phase in Catch, then revoke, agree, and
// rebuild.
func Catch(f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			switch e := r.(type) {
			case *ProcessFailedError:
				err = e
			case *RevokedError:
				err = e
			default:
				panic(r)
			}
		}
	}()
	f()
	return nil
}

// Revoke marks the communicator revoked for every member
// (ULFM MPI_Comm_revoke). The call is local but takes global effect
// immediately: all members' pending and future operations on the
// communicator abort with a *RevokedError (AgreeFailed and Shrink still
// work). Revoke is idempotent; revoking an already-revoked communicator is
// a no-op.
func (c *Comm) Revoke() {
	c.p.world.revokeCtx(c.s.id)
	if r := c.p.world.rec; r != nil {
		now, wall := c.p.clock.Now(), r.NowNS()
		r.Emit(c.p.rank, trace.Event{
			Rank: int32(c.p.rank), Kind: trace.KindRevoke, Peer: -1, Ctx: c.s.id,
			Start: now, End: now, WallStart: wall, WallEnd: wall,
		})
	}
}

// AgreeFailed is a collective over the communicator that returns the world
// ranks of its failed members, identical on every surviving member
// (ULFM MPI_Comm_agree specialised to failure acknowledgement). The
// operation completes once every member has either entered it or failed;
// members that fail before the decision are included in the returned set.
// It works on revoked communicators.
//
// The decision is linearised through the world's agreement service (the
// simulation's stand-in for a tree-based early-returning agreement
// protocol); the charged cost models the 2·⌈log₂ n⌉ message rounds such a
// protocol needs.
func (c *Comm) AgreeFailed() []int {
	c.agreeSeq++
	rec, t0, w0 := c.collStart()
	key := ctxKey{parent: c.s.id, seq: c.agreeSeq}
	failed, maxT := c.p.world.agree(key, c.s.members, c.p.rank, c.p.clock.Now())
	// All participants leave with the same clock: the decision time plus
	// the cost of the agreement rounds over the slowest link involved.
	c.p.clock.AbsorbAtLeast(maxT)
	if n := len(c.s.members); n > 1 {
		link := c.p.world.cluster.Remote
		rounds := 2 * int(math.Ceil(math.Log2(float64(n))))
		c.p.clock.Advance(vclock.Time(float64(rounds) * (link.Latency + 2*link.Overhead)))
	}
	if rec != nil {
		rec.Emit(c.p.rank, trace.Event{
			Rank: int32(c.p.rank), Kind: trace.KindAgree, Peer: -1, Ctx: c.s.id,
			Start: t0, End: c.p.clock.Now(), WallStart: w0, WallEnd: rec.NowNS(),
			A0: int64(len(failed)),
		})
	}
	return failed
}

// AgreeVote is a failure-tolerant collective boolean OR over the
// communicator: it returns true on every surviving member iff any
// surviving member contributed true. Like AgreeFailed it works on revoked
// communicators and treats failed members as participating trivially
// (with false). The HMPI degradation uses it to decide uniformly
// whether to rebuild the group around degraded links — a decision no
// single member can take alone without desynchronising the recovery
// protocol.
func (c *Comm) AgreeVote(local bool) bool {
	c.agreeSeq++
	rec, t0, w0 := c.collStart()
	key := ctxKey{parent: c.s.id, seq: c.agreeSeq}
	vote, maxT := c.p.world.agreeVote(key, c.s.members, c.p.rank, c.p.clock.Now(), local)
	c.p.clock.AbsorbAtLeast(maxT)
	if n := len(c.s.members); n > 1 {
		link := c.p.world.cluster.Remote
		rounds := 2 * int(math.Ceil(math.Log2(float64(n))))
		c.p.clock.Advance(vclock.Time(float64(rounds) * (link.Latency + 2*link.Overhead)))
	}
	if rec != nil {
		var a0 int64
		if vote {
			a0 = 1
		}
		rec.Emit(c.p.rank, trace.Event{
			Rank: int32(c.p.rank), Kind: trace.KindAgree, Peer: -1, Ctx: c.s.id,
			Name:  "vote",
			Start: t0, End: c.p.clock.Now(), WallStart: w0, WallEnd: rec.NowNS(),
			A0: a0,
		})
	}
	return vote
}

// Shrink agrees on the failed set and returns a new communicator over the
// surviving members, in the same relative order (ULFM MPI_Comm_shrink).
// Full functionality — collectives included — is restored on the result.
// Collective over the surviving members of the communicator.
func (c *Comm) Shrink() *Comm {
	rec, t0, w0 := c.collStart()
	failed := c.AgreeFailed()
	dead := make(map[int]bool, len(failed))
	for _, r := range failed {
		dead[r] = true
	}
	id := c.nextContext()
	var members []int
	myRank := -1
	for _, r := range c.s.members {
		if dead[r] {
			continue
		}
		if r == c.p.rank {
			myRank = len(members)
		}
		members = append(members, r)
	}
	if rec != nil {
		rec.Emit(c.p.rank, trace.Event{
			Rank: int32(c.p.rank), Kind: trace.KindShrink, Peer: -1, Ctx: c.s.id,
			Start: t0, End: c.p.clock.Now(), WallStart: w0, WallEnd: rec.NowNS(),
			A0: int64(len(members)), A1: int64(len(failed)),
		})
	}
	return &Comm{
		p:      c.p,
		s:      &commShared{id: id, members: members},
		rank:   myRank,
		tuning: c.tuning,
	}
}

// --- world-side machinery -----------------------------------------------

// revokeCtx marks a context id revoked and wakes every blocked operation so
// it can observe the revocation.
func (w *World) revokeCtx(id int64) {
	w.revMu.Lock()
	already := w.revoked[id]
	w.revoked[id] = true
	w.revMu.Unlock()
	if already {
		return
	}
	for _, p := range w.procs {
		p.mbox.notify()
	}
}

// ctxRevoked reports whether a context id has been revoked.
func (w *World) ctxRevoked(id int64) bool {
	w.revMu.RLock()
	defer w.revMu.RUnlock()
	return w.revoked[id]
}

// agreeState is one in-flight agreement: participants arrive, and the
// first to observe that every member has arrived or failed decides the
// value exactly once, which makes agreement exact by construction.
type agreeState struct {
	members []int
	arrived map[int]bool
	decided bool
	value   []int
	vote    bool // OR of the participants' AgreeVote inputs
	maxT    vclock.Time
}

// agree blocks until every member of the agreement identified by key has
// arrived or failed, then returns the decided failed set (identical for
// all participants) and the maximum arrival clock.
func (w *World) agree(key ctxKey, members []int, me int, now vclock.Time) ([]int, vclock.Time) {
	w.agreeMu.Lock()
	defer w.agreeMu.Unlock()
	st, ok := w.agreeTab[key]
	if !ok {
		st = &agreeState{members: members, arrived: make(map[int]bool, len(members))}
		w.agreeTab[key] = st
	}
	st.arrived[me] = true
	if now > st.maxT {
		st.maxT = now
	}
	for !st.decided {
		if w.agreeComplete(st) {
			st.value = w.failedAmong(st.members)
			st.decided = true
			w.agreeCond.Broadcast()
			break
		}
		w.agreeCond.Wait()
	}
	return append([]int(nil), st.value...), st.maxT
}

// agreeVote blocks until every member of the agreement identified by key
// has arrived or failed, then returns the OR of the surviving members'
// local inputs (identical for all participants) and the maximum arrival
// clock.
func (w *World) agreeVote(key ctxKey, members []int, me int, now vclock.Time, local bool) (bool, vclock.Time) {
	w.agreeMu.Lock()
	defer w.agreeMu.Unlock()
	st, ok := w.agreeTab[key]
	if !ok {
		st = &agreeState{members: members, arrived: make(map[int]bool, len(members))}
		w.agreeTab[key] = st
	}
	st.arrived[me] = true
	st.vote = st.vote || local
	if now > st.maxT {
		st.maxT = now
	}
	for !st.decided {
		if w.agreeComplete(st) {
			st.decided = true
			w.agreeCond.Broadcast()
			break
		}
		w.agreeCond.Wait()
	}
	return st.vote, st.maxT
}

// agreeComplete reports whether every member has arrived or failed.
// Called with agreeMu held.
func (w *World) agreeComplete(st *agreeState) bool {
	for _, r := range st.members {
		if !st.arrived[r] && !w.IsFailed(r) {
			return false
		}
	}
	return true
}

// failedAmong returns the sorted failed subset of the given world ranks.
func (w *World) failedAmong(ranks []int) []int {
	var out []int
	for _, r := range ranks {
		if w.IsFailed(r) {
			out = append(out, r)
		}
	}
	sort.Ints(out)
	return out
}
