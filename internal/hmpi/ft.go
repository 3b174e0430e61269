package hmpi

// Fault tolerance: the HMPI-level recovery operations layered on the MPI
// library's ULFM-style primitives (Revoke / AgreeFailed / Shrink).
//
// The model is the paper's: the host process (the one the user's terminal
// is attached to) coordinates group creation, so it must survive; any
// other process may fail at any time. Recovery re-runs the performance
// model over the surviving processors — the group that executes the
// algorithm fastest on what is left of the network — rather than merely
// excising the dead rank from the old group.

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/mpi"
	"repro/internal/pmdl"
	"repro/internal/trace"
)

// GroupHealth describes the liveness of a group's members.
type GroupHealth struct {
	Alive  []int // world ranks of the surviving members, in group-rank order
	Failed []int // world ranks of the failed members, in group-rank order
}

// Health reports which members of the group are alive and which have
// failed, per this process's current failure knowledge (HMPI_Group_health,
// fault-tolerance extension). It is a local operation; for a view all
// members agree on, use Comm().AgreeFailed.
func (g *Group) Health() GroupHealth {
	var gh GroupHealth
	for _, r := range g.ranks {
		if g.rt.world.IsFailed(r) {
			gh.Failed = append(gh.Failed, r)
		} else {
			gh.Alive = append(gh.Alive, r)
		}
	}
	return gh
}

// IsFailureError reports whether err stems from a process failure or a
// communicator revocation — the errors recovery handles, as opposed to
// application errors, which it propagates.
func IsFailureError(err error) bool {
	var pf *mpi.ProcessFailedError
	var rv *mpi.RevokedError
	return errors.As(err, &pf) || errors.As(err, &rv)
}

// catchWork runs f, converting failure panics into an error; an
// application error returned by f passes through.
func catchWork(f func() error) error {
	var appErr error
	if err := mpi.Catch(func() { appErr = f() }); err != nil {
		return err
	}
	return appErr
}

// GroupRecreate dissolves a group after member failures and re-runs the
// performance-model-driven selection over the surviving processors
// (HMPI_Group_recreate, fault-tolerance extension). It is collective over
// the surviving members of g together with every free process: survivors
// call GroupRecreate — only the parent's model is consulted, others pass
// nil — while free processes participate through GroupCreate (with a nil
// model), exactly as for an ordinary creation. Failed processors are
// excluded from the new selection. Survivors not selected into the new
// group receive nil and rejoin the free pool.
func (h *Process) GroupRecreate(g *Group, model *pmdl.Model, args ...any) (*Group, error) {
	if !h.IsMember(g) {
		return nil, fmt.Errorf("hmpi: process %d is not a member of the group", h.Rank())
	}
	parent := g.ranks[g.parentIdx]
	isParent := parent == h.Rank()
	h.dissolve(g)
	if !isParent {
		// The parent coordinates the recreation; if it died, nobody will
		// re-run the selection, and waiting for its message would hang.
		if h.rt.world.IsFailed(parent) {
			return nil, fmt.Errorf("hmpi: group parent (rank %d) has failed; cannot recreate", parent)
		}
		return h.receiveGroup(parent)
	}
	return h.selectGroup(trace.KindGroupRecreate, model, args)
}

// dissolve ends a broken group on one member: revocation aborts survivors
// still blocked inside the group's operations, the member returns to the
// free pool, and the failure-tolerant agreement — complete despite failed
// members and the revocation — ends the group, after which the parent's
// free-set snapshot holds every survivor.
func (h *Process) dissolve(g *Group) {
	g.comm.Revoke()
	h.release(g)
	g.comm.AgreeFailed()
	h.leave(g)
}

// ResilientPlan produces the performance model for one attempt of a
// resilient region, given the number of processes currently available
// (parent included). RunResilient consults it before every group creation
// so the application can shrink its decomposition to the surviving
// machines.
type ResilientPlan func(avail int) (*pmdl.Model, []any, error)

// FixedPlan adapts a fixed model and arguments — a decomposition that does
// not depend on how many processes survive — to a ResilientPlan.
func FixedPlan(model *pmdl.Model, args ...any) ResilientPlan {
	return func(int) (*pmdl.Model, []any, error) { return model, args, nil }
}

// RunResilient executes work over a performance-model-selected group and
// transparently recovers from process failures: when a member of the group
// fails, the survivors agree on the failure, the group is recreated over
// the surviving processors (GroupRecreate), and work is re-executed on the
// new group. With degradation enabled (EnableDegradation), the same
// protocol also reacts to chronically degraded links: when a machine
// pair's link has crossed the retransmission threshold, the members agree
// (AgreeVote) to fold the degradation into the cost model and recreate,
// so the next selection routes around the bad links. Every process of the
// HMPI program must call it; processes not selected into the current group
// stay free, waiting in the creation protocol like any free process in
// GroupCreate, until the host either selects them or, once the region
// ends, dismisses them. work may therefore run more than once — it must be
// restartable (idempotent or starting from replicated input). When
// RunResilient returns, every process but the host is free again.
//
// The host must survive: it coordinates creation and recovery, as in the
// paper, where the host is the process the user's terminal is attached to.
// A non-failure error returned by work is propagated without retry.
func (h *Process) RunResilient(plan ResilientPlan, work func(g *Group) error) error {
	if h.IsHost() {
		return h.resilientHost(plan, work)
	}
	// A process already failed, or placed on a machine marked failed, is
	// invisible to the host (freeRanks excludes it) and would never receive
	// a creation message: it must not wait, or the world would never drain.
	me := h.Rank()
	if h.rt.world.IsFailed(me) || h.rt.cfg.Cluster.IsMachineFailed(h.rt.placement[me]) {
		return nil
	}
	return h.resilientWorker(work)
}

// resilientHost plans and selects each attempt's group — the first by
// creation, every later one by recreation over what the last left — and
// dismisses the processes the final group did not take.
func (h *Process) resilientHost(plan ResilientPlan, work func(g *Group) error) error {
	var g *Group
	for {
		// The plan sees the free processes outside the last group plus
		// its live members, the host among them.
		avail := len(h.rt.freeRanks()) + 1
		if g != nil {
			avail = len(excludeRanks(h.rt.freeRanks(), g.ranks)) + len(g.Health().Alive)
		}
		model, args, err := plan(avail)
		if err != nil {
			if g != nil {
				h.dissolve(g)
			}
			h.AbortGroupCreate()
			return err
		}
		var ng *Group
		if g == nil {
			ng, err = h.selectGroup(trace.KindGroupCreate, model, args)
		} else {
			ng, err = h.GroupRecreate(g, model, args...)
		}
		if err != nil {
			return err
		}
		g = ng
		again, werr := h.attempt(g, work)
		if !again {
			h.sendMarker(doneMarker, g.ranks)
			return werr
		}
	}
}

// resilientWorker waits in the creation protocol until selected, works as
// a group member, and rejoins through the recreation after every attempt
// that does not end the region.
func (h *Process) resilientWorker(work func(g *Group) error) error {
	var g *Group
	for {
		if g == nil {
			ng, err := h.receiveGroup(HostRank)
			if err == errRegionDone {
				return nil
			}
			if err != nil {
				return err
			}
			g = ng // nil when not selected: wait for the next creation
			continue
		}
		again, werr := h.attempt(g, work)
		if !again {
			return werr
		}
		ng, err := h.GroupRecreate(g, nil)
		if err != nil {
			return err
		}
		g = ng
	}
}

// attempt runs work on a member of g and closes the attempt with the
// agreement every member takes part in. It reports whether the group must
// be recreated: a member failed or, with degradation enabled, the members
// agreed that chronically degraded links were observed. Otherwise the
// region is over and the member has left the group.
func (h *Process) attempt(g *Group, work func(g *Group) error) (again bool, werr error) {
	werr = catchWork(func() error { return work(g) })
	if IsFailureError(werr) {
		// Members blocked on live peers would otherwise wait forever;
		// revocation aborts them into the agreement.
		g.comm.Revoke()
	}
	h.release(g)
	if len(g.comm.AgreeFailed()) > 0 {
		return true, werr
	}
	if d := h.rt.degrade; d != nil && g.comm.AgreeVote(d.shouldReselect()) {
		// Nobody died, but chronically degraded links were observed
		// (retransmit exhaustion surfaces here too: the exhausted link
		// crossed the retransmission threshold on the way down). The host
		// folds them into the cost model, so the next selection routes
		// around the degraded pairs. The agreement vote puts every member
		// into the recreation together; a lone decision would
		// desynchronise the group.
		if h.IsHost() {
			h.recordDegrade(d.apply(h.rt.world.LinkStatsSnapshot()))
		}
		return true, werr
	}
	h.leave(g)
	return false, werr
}

// excludeRanks returns ranks minus the exclusion set.
func excludeRanks(ranks, exclude []int) []int {
	out := make([]int, 0, len(ranks))
	for _, r := range ranks {
		if !slices.Contains(exclude, r) {
			out = append(out, r)
		}
	}
	return out
}
