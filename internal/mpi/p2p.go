package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/trace"
	"repro/internal/vclock"
)

// Wildcards for Recv and Probe, mirroring MPI_ANY_SOURCE and MPI_ANY_TAG.
const (
	AnySource = -1
	AnyTag    = -1
)

// envelope is one in-flight message.
type envelope struct {
	ctx    int64 // communicator context id
	src    int   // world rank of the sender
	tag    int
	data   []byte
	arrive vclock.Time // virtual time the last byte reaches the receiver
	seq    int64       // per-sender sequence, for deterministic tie-breaks
	order  int64       // mailbox enqueue order; earliest queued wins wildcards
	pbuf   *poolBuf    // non-nil when data is pool-backed (copy-on-retain)
}

// mbKey indexes a mailbox bucket: every queued message lives in the FIFO
// of its (communicator context, sender) pair.
type mbKey struct {
	ctx int64
	src int // world rank of the sender
}

// recvSel describes what a receive or probe accepts: one context, a
// single source (world rank) or a candidate set, and a tag or AnyTag.
type recvSel struct {
	ctx  int64
	src  int   // world rank, or AnySource
	tag  int   // or AnyTag
	srcs []int // candidate world ranks when src == AnySource
}

// matchesTag reports whether the selector accepts a message tag. AnyTag
// matches every application tag but never an internal (negative) one:
// the collective machinery owns the negative tag space, and the progress
// engine matches posted wildcard receives eagerly, so a wildcard that
// accepted internal tags could steal a collective's message.
func (s recvSel) matchesTag(tag int) bool {
	if s.tag == AnyTag {
		return tag >= 0
	}
	return tag == s.tag
}

// mailbox holds the messages addressed to one process that no receive has
// consumed yet, indexed by (context, sender) so a directed receive
// inspects one short per-pair FIFO instead of scanning the whole backlog.
// put, awaitArrival and the snapshot of enq form the only cross-goroutine
// interaction in the simulation.
type mailbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	q       map[mbKey][]*envelope
	closed  bool
	aborted bool        // closed by World.abort rather than a failure
	kind    FailureKind // why the owner failed, for error reporting
	owner   int         // world rank, for failure reporting
	// enq is the monotone enqueue counter; it stamps envelope.order. It
	// is written under mu and snapshotted without it (Proc.await, Iprobe).
	enq atomic.Int64

	// maxSeq, when non-nil, records the highest sender sequence consumed
	// per source: the duplicate-suppression window of the reliable
	// delivery path. Per-sender sequences arrive monotonically (in-process
	// delivery is synchronous with the send, the TCP transport is FIFO per
	// connection), so a frame whose sequence does not advance the high
	// mark is a duplicate injected on the wire. Enabled only when a link
	// filter is installed; without one sequences always advance and the
	// map would never fire.
	maxSeq map[int]int64
}

func (m *mailbox) init() {
	m.cond = sync.NewCond(&m.mu)
	m.q = make(map[mbKey][]*envelope)
}

// enableDedupe arms duplicate suppression; called before Run when a link
// filter (which may duplicate frames) is installed.
func (m *mailbox) enableDedupe() {
	m.mu.Lock()
	if m.maxSeq == nil {
		m.maxSeq = make(map[int]int64)
	}
	m.mu.Unlock()
}

func (m *mailbox) put(e *envelope) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		releaseEnvelope(e) // message to a failed process disappears
		return
	}
	if m.maxSeq != nil && e.seq > 0 {
		if last, ok := m.maxSeq[e.src]; ok && e.seq <= last {
			m.mu.Unlock()
			releaseEnvelope(e) // duplicate frame suppressed
			return
		}
		m.maxSeq[e.src] = e.seq
	}
	e.order = m.enq.Add(1) - 1
	k := mbKey{ctx: e.ctx, src: e.src}
	m.q[k] = append(m.q[k], e)
	m.cond.Broadcast()
	m.mu.Unlock()
}

// locate returns the bucket and index of the earliest-queued envelope the
// selector accepts. Buckets are FIFO, so within one bucket the first tag
// match is the earliest; across buckets the enqueue order decides, which
// preserves the pre-indexing semantics (earliest queued wins, so
// per-sender delivery stays non-overtaking). Called with m.mu held.
func (m *mailbox) locate(sel recvSel) (mbKey, int, bool) {
	if sel.src != AnySource {
		k := mbKey{ctx: sel.ctx, src: sel.src}
		for i, e := range m.q[k] {
			if sel.matchesTag(e.tag) {
				return k, i, true
			}
		}
		return mbKey{}, 0, false
	}
	var bestK mbKey
	bestI := -1
	var bestOrder int64
	for _, src := range sel.srcs {
		k := mbKey{ctx: sel.ctx, src: src}
		for i, e := range m.q[k] {
			if !sel.matchesTag(e.tag) {
				continue
			}
			if bestI < 0 || e.order < bestOrder {
				bestK, bestI, bestOrder = k, i, e.order
			}
			break // FIFO bucket: later entries are younger
		}
	}
	if bestI < 0 {
		return mbKey{}, 0, false
	}
	return bestK, bestI, true
}

// pop removes and returns the envelope at (k, i). Called with m.mu held.
func (m *mailbox) pop(k mbKey, i int) *envelope {
	q := m.q[k]
	e := q[i]
	copy(q[i:], q[i+1:])
	q[len(q)-1] = nil
	m.q[k] = q[:len(q)-1]
	return e
}

// notify wakes all waiters so they can re-evaluate giveUp conditions.
func (m *mailbox) notify() {
	m.mu.Lock()
	m.cond.Broadcast()
	m.mu.Unlock()
}

// tryGet returns the earliest-queued envelope the selector accepts, if it
// was enqueued before the count before, removed from its queue unless peek
// is set; otherwise nil. Among queued matches the earliest queued wins,
// which preserves per-sender FIFO (non-overtaking). The bound is a
// snapshot taken before the last progress (see Proc.await): a message
// queued after it may belong to a posted receive that has not seen it.
func (m *mailbox) tryGet(sel recvSel, before int64, peek bool) *envelope {
	m.mu.Lock()
	defer m.mu.Unlock()
	k, i, ok := m.locate(sel)
	if !ok || m.q[k][i].order >= before {
		return nil
	}
	if peek {
		return m.q[k][i]
	}
	return m.pop(k, i)
}

// awaitArrival blocks until the enqueue counter moves past seen — some
// message, not necessarily a matching one, arrived after the snapshot was
// taken — or the owner fails, or giveUp reports an error. Failure
// surfaces by panic; the caller re-runs its matching attempt on return.
// Wakeups without an enqueue (failure notifications broadcast to all
// mailboxes) re-check the abort conditions and sleep again.
func (m *mailbox) awaitArrival(seen int64, giveUp func() error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.enq.Load() == seen {
		if m.closed {
			panic(m.closedErr())
		}
		if giveUp != nil {
			if err := giveUp(); err != nil {
				panic(err)
			}
		}
		m.cond.Wait()
	}
}

func (m *mailbox) close(kind FailureKind) {
	m.mu.Lock()
	m.closed = true
	m.kind = kind
	m.cond.Broadcast()
	m.mu.Unlock()
}

// abort closes the mailbox for World.abort.
func (m *mailbox) abort() {
	m.mu.Lock()
	m.closed, m.aborted = true, true
	m.cond.Broadcast()
	m.mu.Unlock()
}

// closedErr is what a wait on the closed mailbox panics with: the owner's
// failure, or errAborted once the world is aborted.
func (m *mailbox) closedErr() any {
	if m.aborted {
		return errAborted
	}
	return &ProcessFailedError{Rank: m.owner, Kind: m.kind}
}

// Status describes a received or probed message.
type Status struct {
	Source int // rank of the sender within the communicator
	Tag    int
	Bytes  int
}

// checkRank panics if rank is not a valid comm rank.
func (c *Comm) checkRank(op string, rank int) {
	if rank < 0 || rank >= len(c.s.members) {
		panic(fmt.Sprintf("mpi: %s: rank %d out of range [0,%d)", op, rank, len(c.s.members)))
	}
}

// payloadMode is how a send's payload travels in-process (a wire transport
// serialises every payload into a pooled frame, whatever the mode).
type payloadMode uint8

const (
	payCeded  payloadMode = iota // the caller cedes data; it travels as it is
	payCopy                      // a fresh copy, which the receiver is handed and keeps
	payPooled                    // a pooled copy: the receiver consumes it in place and recycles it
)

// sendCommon is the one send body: it computes the timing of a transfer
// anchored at the process clock, advances the clock by the sender-side
// overhead and enqueues the envelope. It returns the virtual time at which
// the sender's interface finishes the transfer.
func (c *Comm) sendCommon(dst, tag int, data []byte, mode payloadMode) vclock.Time {
	p := c.p
	p.progress()
	start := p.clock.Now()
	c.checkRank("Send", dst)
	p.opTick()
	dstW := c.s.members[dst]
	if p.world.ctxRevoked(c.s.id) {
		panic(&RevokedError{Ctx: c.s.id})
	}
	if p.world.IsFailed(dstW) {
		panic(p.world.failedError(dstW))
	}
	link := p.world.cluster.Link(p.machine, p.world.place[dstW])
	p.clock.Advance(vclock.Time(link.Overhead))
	_, end := p.nicOut.Reserve(p.clock.Now(), vclock.Time(link.TransferTime(len(data))))
	buf := data
	var pb *poolBuf
	// Buffered send: the sender may reuse data as soon as the call
	// returns. The wire transport serialises the payload into a frame
	// before deliver returns, so the defensive copy is needed only on the
	// in-process path (and for wire self-delivery, which has no wire).
	if mode != payCeded && (!p.world.wireTransport || dstW == p.rank) {
		if mode == payPooled && len(data) > 0 {
			pb = getBuf(len(data))
			copy(pb.b, data)
			buf = pb.b
		} else {
			// The receiver keeps this copy: Recv, Wait and a collective's
			// stRecv hand it to their caller as it is, so it is the one
			// allocation and the one copy of the message.
			buf = append([]byte(nil), data...)
		}
	}
	p.reqSeq++
	env := getEnv()
	env.ctx = c.s.id
	env.src = p.rank
	env.tag = tag
	env.data = buf
	env.pbuf = pb
	env.arrive = end + vclock.Time(link.Latency)
	env.seq = p.reqSeq
	p.stats.BytesSent += int64(len(data))
	p.stats.MsgsSent++
	if r := p.world.rec; r != nil {
		wall := r.NowNS()
		r.Emit(p.rank, trace.Event{
			Rank: int32(p.rank), Kind: trace.KindSend, Peer: int32(dstW),
			Tag: int32(tag), Ctx: c.s.id, Bytes: int64(len(data)),
			Start: start, End: end, WallStart: wall, WallEnd: wall,
		})
	}
	if p.world.linkFilter != nil && dstW != p.rank {
		// Chaos-adjudicated path: the frame may be delayed, duplicated or
		// dropped (and then retransmitted) before it reaches the wire.
		p.transmitFiltered(dstW, env, link, end)
		return end
	}
	p.world.deliver(dstW, env)
	return end
}

// Send performs a blocking standard-mode send of data to the process with
// communicator rank dst. The send buffers internally, so Send never waits
// for a matching receive; the sender's clock advances by the message
// overhead plus its interface's serialisation of the transfer.
func (c *Comm) Send(dst, tag int, data []byte) { c.send(dst, tag, data, payCopy) }

// send is the blocking send in any payload mode: post, then wait for the
// interface to finish the transfer.
func (c *Comm) send(dst, tag int, data []byte, mode payloadMode) {
	c.p.clock.AbsorbAtLeast(c.sendCommon(dst, tag, data, mode))
}

// sel builds the mailbox selector for a receive or probe on this
// communicator. AnySource receives accept any current member as sender.
func (c *Comm) sel(src, tag int) recvSel {
	if src == AnySource {
		return recvSel{ctx: c.s.id, src: AnySource, tag: tag, srcs: c.s.members}
	}
	c.checkRank("Recv", src)
	return recvSel{ctx: c.s.id, src: c.s.members[src], tag: tag}
}

// failWatch returns the give-up predicate for a receive from src: if the
// awaited sender fails while we are blocked — or the communicator is
// revoked — the receive aborts with an error instead of hanging. AnySource
// receives cannot name a single awaited sender; they abort only when every
// other member of the communicator has failed.
func (c *Comm) failWatch(src int) func() error {
	w := c.p.world
	id := c.s.id
	if src == AnySource {
		members := c.s.members
		me := c.p.rank
		return func() error {
			if w.ctxRevoked(id) {
				return &RevokedError{Ctx: id}
			}
			failed := -1
			for _, r := range members {
				if r == me {
					continue
				}
				if !w.IsFailed(r) {
					return nil
				}
				failed = r
			}
			if failed < 0 {
				return nil
			}
			return w.failedError(failed)
		}
	}
	srcW := c.s.members[src]
	return func() error {
		if w.ctxRevoked(id) {
			return &RevokedError{Ctx: id}
		}
		if w.IsFailed(srcW) {
			return w.failedError(srcW)
		}
		return nil
	}
}

// collWatch is the give-up predicate for collective operations: a
// collective over a communicator cannot complete once any member has
// failed (the communication tree is broken somewhere), so it aborts as
// soon as any member is failed or the communicator is revoked — not just
// the direct peer, which is what keeps survivors that were waiting on
// still-alive neighbours from hanging.
func (c *Comm) collWatch() func() error {
	w := c.p.world
	id := c.s.id
	members := c.s.members
	me := c.p.rank
	return func() error {
		if w.ctxRevoked(id) {
			return &RevokedError{Ctx: id}
		}
		for _, r := range members {
			if r != me && w.IsFailed(r) {
				return w.failedError(r)
			}
		}
		return nil
	}
}

// collCheck aborts a collective at entry if a member is already failed or
// the communicator is revoked, so every survivor reports the failure even
// when its own part of the communication tree would not have touched the
// failed process.
func (c *Comm) collCheck() {
	if err := c.collWatch()(); err != nil {
		panic(err)
	}
}

// finishRecvTiming applies timing and statistics for a consumed envelope.
// t0 is the virtual time the receive was posted, used for tracing the
// waiting interval; anySrc marks a wildcard receive in the trace.
func (c *Comm) finishRecvTiming(e *envelope, t0 vclock.Time, anySrc bool) Status {
	p := c.p
	p.opTick()
	link := p.world.cluster.Link(p.world.place[e.src], p.machine)
	p.clock.AbsorbAtLeast(e.arrive)
	p.clock.Advance(vclock.Time(link.Overhead))
	p.noteRecv(e, t0, p.clock.Now(), anySrc)
	return Status{Source: c.s.rankOf(e.src), Tag: e.tag, Bytes: len(e.data)}
}

// noteRecv counts a received envelope and records its trace event over
// the virtual interval [start, end].
func (p *Proc) noteRecv(e *envelope, start, end vclock.Time, anySrc bool) {
	p.stats.BytesRecv += int64(len(e.data))
	p.stats.MsgsRecv++
	if r := p.world.rec; r != nil {
		wall := r.NowNS()
		var a1 int64
		if anySrc {
			a1 = 1
		}
		r.Emit(p.rank, trace.Event{
			Rank: int32(p.rank), Kind: trace.KindRecv, Peer: int32(e.src),
			Tag: int32(e.tag), Ctx: e.ctx, Bytes: int64(len(e.data)),
			Start: start, End: end, WallStart: wall, WallEnd: wall,
			A1: a1,
		})
	}
}

// consume applies receive timing for e and transfers its payload to the
// caller. Pool-backed payloads are copied out and recycled
// (copy-on-retain); everything else is handed over as-is. The envelope is
// recycled and must not be touched afterwards.
func (c *Comm) consume(e *envelope, t0 vclock.Time, anySrc bool) ([]byte, Status) {
	st := c.finishRecvTiming(e, t0, anySrc)
	data := e.retained()
	e.data = nil
	releaseEnvelope(e)
	return data, st
}

// Recv blocks until a message from src with the given tag arrives (src may
// be AnySource and tag AnyTag) and returns its payload. Messages between
// one sender/receiver pair are non-overtaking, and an earlier-posted Irecv
// claims a message first (Proc.await).
func (c *Comm) Recv(src, tag int) ([]byte, Status) {
	p := c.p
	s := c.sel(src, tag)
	t0 := p.clock.Now()
	e := p.await("recv", s, c.failWatch(src), func(before int64) *envelope { return p.mbox.tryGet(s, before, false) })
	return c.consume(e, t0, src == AnySource)
}

// Probe blocks until a matching message is available without receiving
// it. A message an earlier-posted Irecv claims is not reported.
func (c *Comm) Probe(src, tag int) Status {
	p := c.p
	s := c.sel(src, tag)
	e := p.await("probe", s, c.failWatch(src), func(before int64) *envelope { return p.mbox.tryGet(s, before, true) })
	return Status{Source: c.s.rankOf(e.src), Tag: e.tag, Bytes: len(e.data)}
}

// Iprobe reports whether a matching message is available.
func (c *Comm) Iprobe(src, tag int) (bool, Status) {
	seen := c.p.mbox.enq.Load()
	c.p.progress()
	e := c.p.mbox.tryGet(c.sel(src, tag), seen, true)
	if e == nil {
		return false, Status{}
	}
	return true, Status{Source: c.s.rankOf(e.src), Tag: e.tag, Bytes: len(e.data)}
}

// Sendrecv sends to dst and receives from src in one combined operation,
// overlapping the two transfers as MPI_Sendrecv does.
func (c *Comm) Sendrecv(dst, sendTag int, data []byte, src, recvTag int) ([]byte, Status) {
	sreq := c.Isend(dst, sendTag, data)
	buf, st := c.Recv(src, recvTag) //hmpivet:ignore tagconst -- forwarding the caller's two tags is the operation itself
	sreq.Wait()
	return buf, st
}
