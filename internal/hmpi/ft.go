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

	"repro/internal/mapper"
	"repro/internal/mpi"
	"repro/internal/pmdl"
	"repro/internal/trace"
)

// tagFTCtrl carries RunResilient's host-to-worker control protocol.
const tagFTCtrl = -204

// Control codes sent on tagFTCtrl.
const (
	ctrlCreate int64 = iota + 1 // enter the group-creation protocol
	ctrlDone                    // the resilient region completed; return
	ctrlAbort                   // recovery is impossible; return an error
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
	me := h.Rank()
	isParent := g.ranks[g.parentIdx] == me
	// Abort survivors still blocked inside the old group's operations.
	g.comm.Revoke()
	// Survivors return to the pool before the agreement below, so the
	// parent's free-set snapshot (taken after it) includes them. The
	// parent stays busy: it is pinned into the new group anyway.
	if !isParent && me != HostRank {
		h.rt.setFree(me, true)
	}
	// Failure-tolerant barrier over the surviving members: agreement
	// completes despite failed members (and despite the revocation), and
	// once it does, every survivor's free flag is visible.
	g.comm.AgreeFailed()
	g.freed = true
	g.rank = -1
	// The old group is dissolved from this survivor's point of view; the
	// trace must say so, or the lifecycle accounting would report the
	// recreated-away group as leaked.
	h.recordGroupFree(g.key)
	if !isParent {
		// The parent coordinates the recreation; if it died, nobody will
		// re-run the selection, and waiting for its message would hang.
		if h.rt.world.IsFailed(g.ranks[g.parentIdx]) {
			return nil, fmt.Errorf("hmpi: group parent (rank %d) has failed; cannot recreate", g.ranks[g.parentIdx])
		}
		return h.receiveGroup()
	}
	if model == nil {
		return nil, fmt.Errorf("hmpi: the parent must supply a model to GroupRecreate")
	}
	t0, w0 := h.traceStart()
	inst, asg, err := h.solveSelection(model, args, me)
	if err != nil {
		// Too few survivors for the model (or the like): release the
		// processes waiting in receiveGroup before reporting.
		h.AbortGroupCreate()
		return nil, err
	}
	ng, err := h.distributeGroup(asg.Ranks, inst.Parent)
	if ng != nil {
		ng.stats = asg.Stats
		h.recordGroupEvent(trace.KindGroupRecreate, ng.key, ng.Size(), asg, t0, w0)
	}
	return ng, err
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
// HMPI program must call it; processes not
// selected into the current group park until the host either reassigns or
// dismisses them. work may therefore run more than once — it must be
// restartable (idempotent or starting from replicated input).
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
	// a control message: it must not park, or the world would never drain.
	me := h.Rank()
	if h.rt.world.IsFailed(me) || h.rt.cfg.Cluster.IsMachineFailed(h.rt.placement[me]) {
		return nil
	}
	return h.resilientWorker(work)
}

// resilientHost drives creation, failure agreement, and recovery.
func (h *Process) resilientHost(plan ResilientPlan, work func(g *Group) error) error {
	me := h.Rank()
	var g *Group
	for {
		t0, w0 := h.traceStart()
		// Who is parked (free, alive, and not a member of the failed
		// group)? They receive control messages; survivors of the old
		// group instead synchronise through the recreation barrier.
		var parked []int
		var avail int
		if g == nil {
			parked = excludeRanks(h.rt.freeRanks(), nil)
			avail = len(parked) + 1 // plus the host
		} else {
			parked = excludeRanks(h.rt.freeRanks(), g.ranks)
			avail = len(parked) + len(g.Health().Alive)
			// Dissolve the broken group: abort stragglers, then the
			// failure-tolerant barrier after which the surviving
			// members are back in the free pool.
			g.comm.Revoke()
			g.comm.AgreeFailed()
			g.freed = true
			g.rank = -1
			h.recordGroupFree(g.key)
		}
		model, args, err := plan(avail)
		var inst *pmdl.Instance
		var asg mapper.Assignment
		if err == nil {
			if model == nil {
				err = fmt.Errorf("hmpi: resilient plan returned no model")
			} else {
				inst, asg, err = h.solveSelection(model, args, me)
			}
		}
		if err != nil {
			if g != nil {
				h.AbortGroupCreate() // wakes survivors in receiveGroup
			}
			h.ctrlTo(parked, ctrlAbort)
			return err
		}
		h.ctrlTo(parked, ctrlCreate)
		recreating := g != nil
		g, err = h.distributeGroup(asg.Ranks, inst.Parent)
		if err != nil {
			h.ctrlTo(parked, ctrlAbort)
			return err
		}
		g.stats = asg.Stats
		// The resilient loop selects groups without going through
		// createGroup/GroupRecreate, so it records the lifecycle events
		// itself: the first pass is a creation, every later one a
		// post-failure recreation.
		kind := trace.KindGroupCreate
		if recreating {
			kind = trace.KindGroupRecreate
		}
		h.recordGroupEvent(kind, g.key, g.Size(), asg, t0, w0)
		werr := catchWork(func() error { return work(g) })
		if IsFailureError(werr) {
			// Members blocked on live peers would otherwise wait
			// forever; revocation aborts them into their own agreement.
			g.comm.Revoke()
		}
		if len(g.comm.AgreeFailed()) == 0 {
			if d := h.rt.degrade; d != nil && g.comm.AgreeVote(d.shouldReselect()) {
				// Nobody died, but chronically degraded links were
				// observed (retransmit exhaustion surfaces here too: the
				// exhausted link crossed the retransmission threshold on
				// the way down). Fold them into the cost model and loop —
				// the next selection routes around the degraded pairs. The
				// agreement vote puts every member into the recreation
				// protocol together; a lone decision would desynchronise
				// the group.
				pairs := d.apply(h.rt.world.LinkStatsSnapshot())
				h.recordDegrade(pairs)
				continue
			}
			// No member failed: the region is complete (modulo an
			// application error, which is not retried). Dismiss the
			// parked processes.
			h.ctrlTo(excludeRanks(h.rt.freeRanks(), g.ranks), ctrlDone)
			h.recordGroupFree(g.key)
			return werr
		}
		// A member failed; loop to recreate over the survivors.
	}
}

// resilientWorker alternates between parking (awaiting host control) and
// working as a group member.
func (h *Process) resilientWorker(work func(g *Group) error) error {
	comm := h.CommWorld()
	var g *Group
	for {
		if g == nil {
			payload, _ := comm.Recv(HostRank, tagFTCtrl)
			switch mpi.BytesInt64(payload)[0] {
			case ctrlDone:
				return nil
			case ctrlAbort:
				return fmt.Errorf("hmpi: resilient run aborted (recovery impossible)")
			case ctrlCreate:
				ng, err := h.receiveGroup()
				if err != nil {
					return err
				}
				g = ng // nil when not selected: park again
				continue
			default:
				return fmt.Errorf("hmpi: unknown resilient control message")
			}
		}
		werr := catchWork(func() error { return work(g) })
		if IsFailureError(werr) {
			g.comm.Revoke()
		}
		if len(g.comm.AgreeFailed()) == 0 {
			d := h.rt.degrade
			if d == nil || !g.comm.AgreeVote(d.shouldReselect()) {
				h.recordGroupFree(g.key)
				return werr
			}
			// Degrade-reselect, agreed with the host: rejoin through the
			// recreation protocol exactly as after a member failure.
		}
		// A member failed (or the group is rebuilding around degraded
		// links): rejoin the pool through the recreation protocol; the
		// host supplies the model.
		ng, err := h.GroupRecreate(g, nil)
		if err != nil {
			return err
		}
		g = ng
	}
}

// ctrlTo sends a control code to each rank, skipping corpses.
func (h *Process) ctrlTo(ranks []int, code int64) {
	comm := h.CommWorld()
	payload := mpi.Int64Bytes([]int64{code})
	for _, r := range ranks {
		if r == h.Rank() {
			continue
		}
		r := r
		_ = mpi.Catch(func() { comm.Send(r, tagFTCtrl, payload) })
	}
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
