package hmpi

// Graceful degradation: route around chronically degraded links instead
// of suffering them. The mpi layer's retransmit path counts per-link
// retransmissions; when a link between two machines has needed
// degradeRetransmits of them, the pair counts as degraded. The resilient
// loop (RunResilient) then — by the same agreement-synchronised protocol it
// uses for member failures — worsens the pair in the cost model
// (hnoc.Cluster.DegradeLink: the model's belief, not the simulation's
// physics) and recreates the group, so the performance-model-driven
// selection places the computation on machines whose links still work.
// The reaction is visible in traces as a degrade_reselect event.

import (
	"sort"
	"sync"

	"repro/internal/mpi"
	"repro/internal/trace"
)

const (
	// degradeRetransmits is the retransmission count on one directed link
	// at which its machine pair counts as chronically degraded.
	degradeRetransmits = 3
	// degradeFactor is the slowdown folded into the cost model for a
	// degraded pair (latency multiplied, bandwidth divided by it):
	// pessimistic enough that selection avoids the pair whenever the
	// network offers any alternative.
	degradeFactor = 8
)

// degradeState is the runtime's live degradation tracker, shared by every
// process of the run (the simulated analogue of gossiped link-quality
// state).
type degradeState struct {
	rt *Runtime

	mu      sync.Mutex
	applied map[[2]int]bool // machine pairs already folded into the model
}

// EnableDegradation arms the reaction: RunResilient reads the retransmit
// path's link statistics at the end of every attempt and triggers a
// degrade-reselect for pairs past the threshold. Call before Run; without
// a link filter there are no retransmissions and nothing is degraded.
func (rt *Runtime) EnableDegradation() {
	rt.degrade = &degradeState{rt: rt, applied: make(map[[2]int]bool)}
}

// pending returns the machine pairs whose links crossed the retransmission
// threshold in stats (World.LinkStatsSnapshot) and are not yet folded into
// the model, sorted (deterministic traces). Same-machine pairs have no
// link to route around. The counters only grow, so a pair once pending
// stays pending until applied.
func (d *degradeState) pending(stats map[[2]int]mpi.LinkStats) [][2]int {
	seen := map[[2]int]bool{}
	var pairs [][2]int
	d.mu.Lock()
	for link, st := range stats {
		ma, mb := d.rt.placement[link[0]], d.rt.placement[link[1]]
		if ma > mb {
			ma, mb = mb, ma
		}
		pair := [2]int{ma, mb}
		if st.Retransmits >= degradeRetransmits && ma != mb && !d.applied[pair] && !seen[pair] {
			seen[pair] = true
			pairs = append(pairs, pair)
		}
	}
	d.mu.Unlock()
	sortPairs(pairs)
	return pairs
}

// apply folds every pending pair into the cost model and returns the
// pairs applied. Idempotent per pair: once applied, further
// retransmissions on it do not re-trigger.
func (d *degradeState) apply(stats map[[2]int]mpi.LinkStats) [][2]int {
	pairs := d.pending(stats)
	d.mu.Lock()
	for _, pair := range pairs {
		d.applied[pair] = true
	}
	d.mu.Unlock()
	for _, pair := range pairs {
		d.rt.cfg.Cluster.DegradeLink(pair[0], pair[1], degradeFactor)
	}
	return pairs
}

func sortPairs(pairs [][2]int) {
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
}

// DegradedPairs returns the machine pairs currently folded into the cost
// model as degraded, sorted.
func (rt *Runtime) DegradedPairs() [][2]int {
	d := rt.degrade
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	pairs := make([][2]int, 0, len(d.applied))
	for pair := range d.applied {
		pairs = append(pairs, pair)
	}
	sortPairs(pairs)
	return pairs
}

// shouldReselect is the local vote input for the degrade-reselect
// agreement: true when degraded pairs await a model update. (Each rank
// reads the shared statistics at a different moment — the agreement vote,
// not the read, makes the decision uniform.)
func (d *degradeState) shouldReselect() bool {
	return d != nil && len(d.pending(d.rt.world.LinkStatsSnapshot())) > 0
}

// recordDegrade emits the degrade_reselect event: one per applied machine
// pair, Peer/A1 carrying the pair, A0 the model slowdown factor.
func (h *Process) recordDegrade(pairs [][2]int) {
	rec := h.proc.Recorder()
	if rec == nil {
		return
	}
	now, wall := h.proc.Now(), rec.NowNS()
	for _, pair := range pairs {
		rec.Emit(h.Rank(), trace.Event{
			Rank: int32(h.Rank()), Kind: trace.KindDegrade,
			Peer: int32(pair[0]), A1: int64(pair[1]),
			A0:    trace.FloatBits(degradeFactor),
			Start: now, End: now, WallStart: wall, WallEnd: wall,
		})
	}
}
