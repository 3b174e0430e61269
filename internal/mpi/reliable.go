package mpi

// Reliable delivery over faulty links. The simulation's links are perfect
// by default: every frame handed to deliver reaches the destination
// mailbox. A LinkFilter — installed by the chaos engine — breaks that
// assumption deterministically: each frame crossing a link is adjudicated
// (deliver, delay, duplicate, drop) as a pure function of the link, the
// virtual time, the sender's sequence number and the attempt, so the same
// seed reproduces the same faults bit for bit on both transports (the
// filter sits at the envelope-to-frame boundary that the in-process and
// TCP paths share).
//
// The retransmit path makes the library survive those faults without app
// involvement, the way a reliable transport would:
//
//   - every message already carries a per-sender sequence stamp (seq);
//   - a dropped frame is resent after an ack-timeout that backs off
//     exponentially, charged in virtual time (the resend also re-occupies
//     the sender's interface, so retransmissions consume bandwidth);
//   - duplicated frames are suppressed in the destination mailbox by the
//     sequence high-mark (see peer.maxSeq);
//   - a frame still undeliverable after maxRetransmits resends declares
//     the destination unreachable: a *ProcessFailedError whose Kind is
//     FailurePartition when the peer is not known dead — the caller (or
//     the HMPI degradation above) decides whether to rebuild around the
//     link or give up.
//
// Per-link statistics (drops, duplicates, retransmits) are what the HMPI
// degradation reads (LinkStatsSnapshot).

import (
	"repro/internal/hnoc"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// LinkOutcome is a filter's verdict on one frame-transmission attempt.
type LinkOutcome struct {
	// Drop discards the frame on the wire; the sender resends after an
	// ack timeout.
	Drop bool
	// Dup delivers a second, identical copy of the frame immediately
	// after the first (suppressed by the receiver: peer.maxSeq).
	Dup bool
	// Delay defers the frame's arrival by this much virtual time on top
	// of the modeled link latency.
	Delay vclock.Time
}

// LinkFilter adjudicates one transmission attempt of the frame with the
// given per-sender sequence from world rank src to dst at virtual time
// `at` (attempt 0 is the original transmission, higher attempts are
// retransmissions). It must be a pure function of its arguments so runs
// are reproducible; it is called from every sender's goroutine
// concurrently.
type LinkFilter func(src, dst int, at vclock.Time, seq int64, attempt int) LinkOutcome

// The retransmit path: a 20 ms virtual-time ack timeout before the first
// resend, doubling per further loss up to 32x, and six resends of one
// frame (cumulative ~1.26 s of virtual patience, so transient partitions
// shorter than that are ridden out rather than escalated) before the
// destination is declared unreachable with a partition-kind failure.
const (
	retransmitRTO  vclock.Time = 0.02
	maxRTOShift                = 5 // 2^5 = 32x
	maxRetransmits             = 6
)

// rtoFor returns the backoff before resend attempt (0-based).
func rtoFor(attempt int) vclock.Time {
	return retransmitRTO * vclock.Time(int64(1)<<min(attempt, maxRTOShift))
}

// linkPair keys per-link statistics by (source, destination) world rank.
type linkPair struct {
	Src, Dst int
}

// LinkStats accumulates the observed behaviour of one directed link under
// a link filter: what the chaos engine injected and what the retransmit
// path paid to absorb it.
type LinkStats struct {
	Drops       int64 // frames the filter discarded
	Dups        int64 // duplicate frames injected
	Retransmits int64 // resends performed
}

// SetLinkFilter installs the frame adjudicator (nil removes it), which
// arms the retransmit path. Install before Run. The duplicates it injects
// need no arming: every mailbox drops a frame whose sequence does not
// advance its sender's (peer.maxSeq).
func (w *World) SetLinkFilter(f LinkFilter) {
	w.linkFilter = f
	if f == nil {
		return
	}
	w.linkMu.Lock()
	if w.linkStats == nil {
		w.linkStats = make(map[linkPair]*LinkStats)
	}
	w.linkMu.Unlock()
}

// LinkStatsSnapshot returns a copy of the per-link fault statistics
// accumulated so far.
func (w *World) LinkStatsSnapshot() map[[2]int]LinkStats {
	out := make(map[[2]int]LinkStats)
	w.linkMu.Lock()
	for k, v := range w.linkStats {
		out[[2]int{k.Src, k.Dst}] = *v
	}
	w.linkMu.Unlock()
	return out
}

// noteLink updates one link's statistics.
func (w *World) noteLink(src, dst int, f func(*LinkStats)) {
	w.linkMu.Lock()
	st := w.linkStats[linkPair{src, dst}]
	if st == nil {
		st = &LinkStats{}
		w.linkStats[linkPair{src, dst}] = st
	}
	f(st)
	w.linkMu.Unlock()
}

// recordLinkEvent emits a link-layer trace event on the sender's shard
// (callers run on the sender's goroutine, satisfying the single-writer
// rule).
func (p *Proc) recordLinkEvent(kind trace.Kind, dst int, name string, start, end vclock.Time, seq int64, a0 int64) {
	r := p.world.rec
	if r == nil {
		return
	}
	wall := r.NowNS()
	r.Emit(p.rank, trace.Event{
		Rank: int32(p.rank), Kind: kind, Peer: int32(dst), Name: name,
		Start: start, End: end, WallStart: wall, WallEnd: wall,
		Ctx: seq, A0: a0,
	})
}

// cloneEnvelope builds an independently owned copy of e (same metadata
// and sequence stamp, pool-backed payload copy): the wire duplicate.
func cloneEnvelope(e *envelope) envelope {
	d := envelope{ctx: e.ctx, src: e.src, tag: e.tag, seq: e.seq, arrive: e.arrive}
	if len(e.data) > 0 {
		pb := getBuf(len(e.data))
		copy(pb.b, e.data)
		d.data, d.pbuf = pb.b, pb
	}
	return d
}

// transmitFiltered carries env across the (src,dst) link under the
// installed filter: injected delay inflates the arrival, a duplicate is
// delivered alongside (and suppressed at the receiver), and a dropped
// frame is retransmitted after an exponentially backed-off ack timeout —
// each resend re-reserves the sender's interface, so retransmissions
// consume bandwidth and push later sends back. Exhausting the retry
// budget declares the destination unreachable with a partition-kind
// failure (crash-kind if the peer is already known dead). end is the
// virtual time the first copy left the sender's interface.
func (p *Proc) transmitFiltered(dstW int, env *envelope, link hnoc.LinkSpec, end vclock.Time) {
	w := p.world
	f := w.linkFilter
	xfer := vclock.Time(link.TransferTime(len(env.data)))
	wireAt := end // when the current copy finished serialising
	for attempt := 0; ; attempt++ {
		out := f(env.src, dstW, wireAt, env.seq, attempt)
		if !out.Drop {
			if out.Delay > 0 {
				env.arrive += out.Delay
				p.recordLinkEvent(trace.KindLinkFault, dstW, "delay", wireAt, wireAt+out.Delay, env.seq, int64(attempt))
			}
			if out.Dup {
				p.recordLinkEvent(trace.KindLinkFault, dstW, "dup", wireAt, wireAt, env.seq, int64(attempt))
				w.noteLink(env.src, dstW, func(st *LinkStats) { st.Dups++ })
				w.deliver(dstW, cloneEnvelope(env))
			}
			w.deliver(dstW, *env)
			return
		}
		p.recordLinkEvent(trace.KindLinkFault, dstW, "drop", wireAt, wireAt, env.seq, int64(attempt))
		w.noteLink(env.src, dstW, func(st *LinkStats) { st.Drops++ })
		if attempt >= maxRetransmits {
			env.release()
			kind := FailurePartition
			if w.IsFailed(dstW) {
				kind = FailureCrash
			}
			panic(&ProcessFailedError{Rank: dstW, Kind: kind})
		}
		// Ack timeout: the loss is noticed rtoFor(attempt) after the copy
		// left the wire; the resend then re-occupies the interface.
		_, resendEnd := p.nicOut.Reserve(wireAt+rtoFor(attempt), xfer)
		p.recordLinkEvent(trace.KindRetransmit, dstW, "", wireAt, resendEnd, env.seq, int64(attempt+1))
		w.noteLink(env.src, dstW, func(st *LinkStats) { st.Retransmits++ })
		wireAt = resendEnd
		env.arrive = resendEnd + vclock.Time(link.Latency)
	}
}
