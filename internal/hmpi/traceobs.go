package hmpi

// Observability: the HMPI runtime's attachment point for the structured
// event recorder (internal/trace) and the emission helpers for the
// runtime-level lifecycle events — Recon refreshes, group creation with
// its search statistics, group dissolution, and recreation after
// failures. The MPI-level events (sends, receives, collectives with their
// resolved algorithm) are emitted by internal/mpi itself.

import (
	"encoding/json"

	"repro/internal/mapper"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// EnableRecorder creates a structured event recorder sized for the world,
// stamps it with the run's metadata (application name, placement, cluster
// description), and attaches it; call before Run. The returned recorder
// yields the trace via its Data method after the run completes.
//
// The recorder observes metadata only — byte counts, algorithm names,
// model predictions — never payload slices, so it composes with the
// pooled message path (internal/mpi's bufpool.go).
func (rt *Runtime) EnableRecorder(app string, opts trace.Options) *trace.Recorder {
	rec := trace.NewRecorder(rt.world.Size(), opts)
	meta := trace.Meta{
		App:       app,
		NRanks:    rt.world.Size(),
		Placement: append([]int(nil), rt.placement...),
	}
	if b, err := json.Marshal(rt.cfg.Cluster); err == nil {
		meta.Cluster = b
	}
	rec.SetMeta(meta)
	rt.world.SetRecorder(rec)
	return rec
}

// recordGroupEvent emits a group-lifecycle event on this process's shard:
// kind is KindGroupCreate or KindGroupRecreate, key the group's
// communicator-derivation key (the Ctx), size the member count (Bytes),
// and the aux fields carry the selection search behind the decision —
// A0 the model's predicted execution time (FloatBits), A1 objective
// evaluations, A2 symmetry-cache hits, A3 pruned assignments.
func (h *Process) recordGroupEvent(kind trace.Kind, key int64, size int, asg mapper.Assignment, t0 vclock.Time, w0 int64) {
	rec := h.proc.Recorder()
	if rec == nil {
		return
	}
	rec.Emit(h.Rank(), trace.Event{
		Rank: int32(h.Rank()), Kind: kind, Peer: -1,
		Ctx: key, Bytes: int64(size),
		Start: t0, End: h.proc.Now(),
		WallStart: w0, WallEnd: rec.NowNS(),
		A0: trace.FloatBits(asg.Time),
		A1: int64(asg.Stats.Evaluations),
		A2: int64(asg.Stats.CacheHits),
		A3: int64(asg.Stats.Pruned),
	})
}

// recordGroupFree emits the instant marking a group's dissolution.
func (h *Process) recordGroupFree(key int64) {
	rec := h.proc.Recorder()
	if rec == nil {
		return
	}
	now, wall := h.proc.Now(), rec.NowNS()
	rec.Emit(h.Rank(), trace.Event{
		Rank: int32(h.Rank()), Kind: trace.KindGroupFree, Peer: -1, Ctx: key,
		Start: now, End: now, WallStart: wall, WallEnd: wall,
	})
}

// recordRecon emits this process's Recon refresh: A0 carries the newly
// measured local speed (FloatBits, benchmark units per second).
func (h *Process) recordRecon(mine float64, t0 vclock.Time, w0 int64) {
	rec := h.proc.Recorder()
	if rec == nil {
		return
	}
	rec.Emit(h.Rank(), trace.Event{
		Rank: int32(h.Rank()), Kind: trace.KindRecon, Peer: -1,
		Start: t0, End: h.proc.Now(),
		WallStart: w0, WallEnd: rec.NowNS(),
		A0: trace.FloatBits(mine),
	})
}

// traceStart captures entry timestamps when a recorder is attached (the
// vclock/wall pair the emit helpers above expect).
func (h *Process) traceStart() (t0 vclock.Time, w0 int64) {
	if rec := h.proc.Recorder(); rec != nil {
		t0, w0 = h.proc.Now(), rec.NowNS()
	}
	return t0, w0
}
