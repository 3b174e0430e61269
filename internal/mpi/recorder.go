package mpi

// Structured event recording (see internal/trace): the observability
// subsystem's view of the message-passing layer. The Recorder shards per
// rank, captures collectives with their resolved algorithm, and feeds the
// exporters, analyses and text timeline of the trace package.
//
// Every instrumentation site guards on a single nil check, so a world
// without a recorder pays no allocations and no atomic traffic — the
// acceptance bar is zero extra allocs/op on the TCP round-trip benchmark.
//
// Ownership: events carry byte counts and metadata only, never payload
// slices, so recording composes with the pooled message path
// (bufpool.go) — there is structurally nothing for the recorder to
// retain.

import (
	"repro/internal/trace"
	"repro/internal/vclock"
)

// SetRecorder attaches a structured event recorder to the world. Create
// it with trace.NewRecorder(world.Size(), opts) and attach before Run;
// passing nil detaches. The recorder's shards are indexed by world rank.
func (w *World) SetRecorder(r *trace.Recorder) { w.rec = r }

// Recorder returns the recorder attached to the process's world, or nil.
// Runtime layers (internal/hmpi) use it to emit their own lifecycle
// events on this process's shard.
func (p *Proc) Recorder() *trace.Recorder { return p.world.rec }

// TraceRegionBegin opens a named application phase on this process's
// shard at the current virtual time. No-op without a recorder. Every
// begin must be matched by a TraceRegionEnd with the same name (the
// hmpivet `tracescope` analyzer flags unbalanced functions).
func (p *Proc) TraceRegionBegin(name string) {
	if r := p.world.rec; r != nil {
		r.RegionBegin(p.rank, name, p.clock.Now())
	}
}

// TraceRegionEnd closes the innermost open region with the given name and
// records the Region event. No-op without a recorder.
func (p *Proc) TraceRegionEnd(name string) {
	if r := p.world.rec; r != nil {
		r.RegionEnd(p.rank, name, p.clock.Now())
	}
}

// TracePredict records a model prediction (seconds of virtual time) for
// the named phase, to be matched against the phase's Region events by the
// predicted-vs-observed report. No-op without a recorder.
func (p *Proc) TracePredict(name string, seconds float64) {
	if r := p.world.rec; r != nil {
		r.Predict(p.rank, name, seconds, p.clock.Now())
	}
}

// RecordKill records a fault-injection kill of rank at virtual time now.
// It must be called from the goroutine running the killed rank (the chaos
// hook fires at the victim's own operation boundary, which satisfies
// this). No-op without a recorder.
func (w *World) RecordKill(rank int, now vclock.Time) {
	if r := w.rec; r != nil {
		wall := r.NowNS()
		r.Emit(rank, trace.Event{
			Rank: int32(rank), Kind: trace.KindKill, Peer: -1,
			Start: now, End: now, WallStart: wall, WallEnd: wall,
		})
	}
}

// Resolved-algorithm labels for collective events. Indexed by the
// algorithm constants so emitting sites never format strings; the
// "collective/algorithm" shape groups nicely in trace viewers.
var (
	allreduceAlgNames = [...]string{
		AllreduceRedBcast:          "allreduce/redbcast",
		AllreduceRecursiveDoubling: "allreduce/recdbl",
		AllreduceRing:              "allreduce/ring",
		AllreduceAuto:              "allreduce/auto",
		AllreduceHier:              "allreduce/hier",
	}
	reduceScatterAlgNames = [...]string{
		ReduceScatterViaRoot:  "reducescatter/viaroot",
		ReduceScatterPairwise: "reducescatter/pairwise",
		ReduceScatterAuto:     "reducescatter/auto",
		ReduceScatterHier:     "reducescatter/hier",
	}
	bcastAlgNames = [...]string{
		BcastBinomial:  "bcast/binomial",
		BcastSegmented: "bcast/segmented",
		BcastAuto:      "bcast/auto",
		BcastHier:      "bcast/hier",
	}
	gatherAlgNames = [...]string{
		GatherFlat:     "gather/flat",
		GatherBinomial: "gather/binomial",
		GatherAuto:     "gather/auto",
		GatherHier:     "gather/hier",
	}
	scatterAlgNames = [...]string{
		ScatterFlat:     "scatter/flat",
		ScatterBinomial: "scatter/binomial",
	}
)

// mboxGet is the instrumented blocking mailbox receive. kind labels the
// wait ("recv" for application point-to-point, "coll" inside collective
// algorithms). When a recorder is attached, the wait is published as a
// pending operation for the lifetime of the blocking call, so a trace
// snapshotted mid-run — after a deadlock or a hang — shows exactly what
// every rank was waiting for; hmpiverify builds its wait-for graph from
// these entries. Without a recorder the only cost over a direct
// mbox.get is one nil check and a bool store.
func (c *Comm) mboxGet(kind string, s recvSel, giveUp func() error) *envelope {
	p := c.p
	p.lastRecvAnySrc = s.src == AnySource
	r := p.world.rec
	if r == nil {
		return p.mbox.get(s, giveUp, false)
	}
	peer := -1
	if s.src != AnySource {
		peer = s.src
	}
	r.PendingBegin(p.rank, trace.PendingOp{
		Kind: kind, Peer: peer, Tag: s.tag, Ctx: s.ctx,
		AnySrc: s.src == AnySource, Since: float64(p.clock.Now()),
	})
	// The pop must run even when the wait aborts by panic (failed peer,
	// revoked communicator): the rank is no longer waiting on this op.
	defer r.PendingEnd(p.rank)
	return p.mbox.get(s, giveUp, false)
}

// collStart captures the entry timestamps of a collective-like operation
// (the agreements and Shrink of ft.go) when a recorder is attached, keeping
// the disabled path to one nil check. The collectives proper carry their
// events in their schedules (stBegin/stEnd, collexec.go).
func (c *Comm) collStart() (rec *trace.Recorder, t0 vclock.Time, w0 int64) {
	rec = c.p.world.rec
	if rec != nil {
		t0, w0 = c.p.clock.Now(), rec.NowNS()
	}
	return rec, t0, w0
}
