package mpi

import (
	"fmt"
	"math"
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

// envelope is one in-flight message. It travels by value into a slot of
// its sender's lane, where it stays, once drained linked into its queue,
// until its receive frees it (mailbox.free).
type envelope struct {
	ctx    int64 // communicator context id
	src    int   // world rank of the sender
	tag    int
	data   []byte
	arrive vclock.Time // virtual time the last byte reaches the receiver
	seq    int64       // per-sender sequence, for deterministic tie-breaks
	order  int64       // the owner's drain stamp; earliest drained wins wildcards
	pbuf   *poolBuf    // non-nil when data is pool-backed (copy-on-retain)
	home   *segment    // the lane segment holding it, once drained
	next   *envelope   // the next envelope of its queue, once drained
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

// senders returns the world ranks the selector takes from.
func (s recvSel) senders() []int {
	if s.src == AnySource {
		return s.srcs
	}
	return []int{s.src}
}

// mailbox holds the messages addressed to one process: one peer per
// sender world rank, whose lane only that sender fills (on TCP, its
// connection's pump). The owner drains a lane by linking its slots into
// the peer's per-context queues, where it matches without a lock. The
// mutex serves the sleep/wake handshake alone (Proc.sleep, wake).
type mailbox struct {
	peers []peer // by sender world rank
	stamp int64  // the owner's last drain stamp (envelope.order)

	mu       sync.Mutex
	cond     *sync.Cond
	sleeping atomic.Bool // the owner sleeps, or is about to, uncounted by a waker
	closed   atomic.Bool // producers drop their messages once it is set
	aborted  atomic.Bool // closed by World.abort rather than a failure
	kind     FailureKind // why the owner failed, for error reporting
	owner    int         // world rank, for failure reporting
	w        *World
}

const laneSeg = 16 // envelopes per lane segment

// peer is one sender's lane into the owner — envelopes by value in
// segments, each slot published by one atomic store of its segment's
// count — and the owner's queues of what it drained. A sender's sequences
// arrive in order (a lane is FIFO, so is a TCP connection): one that does
// not advance maxSeq is a wire duplicate.
type peer struct {
	tail   *segment                // the producer's segment
	head   atomic.Pointer[segment] // the segment the owner drains
	maxSeq int64                   // owner: the highest sequence drained
	queues []queue                 // owner: one per context
}

// queue is the drained envelopes of one context, oldest first, linked
// through envelope.next. An empty one is drained, for the next context.
type queue struct {
	ctx         int64
	first, last *envelope
}

const drained = math.MinInt64 // no communicator has this context id

type segment struct {
	n     atomic.Int32 // slots published
	next  atomic.Pointer[segment]
	slots [laneSeg]envelope
	taken int32 // owner: slots drained
	gone  int32 // owner: slots drained, then freed or dropped
}

// freeSegs keeps recycled segments for any lane: at most 1 024 (1.6 MB),
// twice the most the paper-apps bench workload ever leaves free. It is
// not a sync.Pool, which each collection empties: paper-apps collects
// about seven times per op, and its lanes re-allocated their backlogs.
var freeSegs = make(chan *segment, 1024)

// push copies e into the lane and publishes it. Producer only.
func (p *peer) push(e *envelope) {
	s := p.tail
	if s == nil || s.n.Load() == laneSeg {
		select {
		case p.tail = <-freeSegs:
		default:
			p.tail = new(segment)
		}
		if s == nil {
			p.head.Store(p.tail)
		} else {
			s.next.Store(p.tail)
		}
		s = p.tail
	}
	i := s.n.Load()
	s.slots[i] = *e
	s.n.Store(i + 1)
}

// recycle empties s, which nothing reaches any more, for freeSegs.
func (s *segment) recycle() {
	*s = segment{}
	select {
	case freeSegs <- s:
	default:
	}
}

// queue returns the peer's queue of ctx, or nil.
func (p *peer) queue(ctx int64) *queue {
	for i := range p.queues {
		if p.queues[i].ctx == ctx {
			return &p.queues[i]
		}
	}
	return nil
}

// add links e at the end of the queue of its context.
func (p *peer) add(e *envelope) {
	q := p.queue(e.ctx)
	if q == nil {
		if q = p.queue(drained); q == nil {
			p.queues = append(p.queues, queue{})
			q = &p.queues[len(p.queues)-1]
		}
		q.ctx = e.ctx
	}
	if q.last == nil {
		q.first = e
	} else {
		q.last.next = e
	}
	q.last = e
}

// unlink takes e, which follows prev (nil when e is first), out of q.
func (q *queue) unlink(e, prev *envelope) *envelope {
	if prev == nil {
		q.first = e.next
	} else {
		prev.next = e.next
	}
	if q.last == e {
		q.last = prev
	}
	if q.first == nil {
		q.ctx = drained
	}
	e.next = nil
	return e
}

func (m *mailbox) init(senders int) {
	m.cond = sync.NewCond(&m.mu)
	m.peers = make([]peer, senders)
}

// put publishes e in its sender's lane and wakes the owner if it sleeps.
// Only the lane's one producer calls it. It publishes before it loads
// sleeping, and Proc.sleep stores sleeping before it re-checks the lanes:
// Go's atomics are sequentially consistent, so one of the two sees the
// other and no arrival is slept through.
func (m *mailbox) put(e *envelope) {
	if m.closed.Load() {
		e.release() // message to a failed process disappears
		return
	}
	m.peers[e.src].push(e)
	if m.sleeping.Load() {
		m.notify()
	}
}

// drain queues what the lanes sel can take from have published, stamping
// each envelope's order and suppressing wire duplicates, and reports
// whether it moved anything. Owner only.
func (m *mailbox) drain(sel recvSel) bool {
	moved := false
	for _, src := range sel.senders() {
		p := &m.peers[src]
		for seg := p.head.Load(); seg != nil; seg = p.head.Load() {
			for n := seg.n.Load(); seg.taken < n; seg.taken++ {
				moved = true
				e := &seg.slots[seg.taken]
				if e.seq > 0 && e.seq <= p.maxSeq {
					e.release() // duplicate frame suppressed
					seg.gone++
					continue
				}
				p.maxSeq = max(p.maxSeq, e.seq)
				m.stamp++
				e.order, e.home = m.stamp, seg
				p.add(e)
			}
			next := seg.next.Load()
			if seg.taken < laneSeg || next == nil {
				break
			}
			p.head.Store(next)
			if seg.gone == laneSeg {
				seg.recycle()
			}
		}
	}
	return moved
}

// free releases e's pooled payload and hands its slot back once the
// receive that took e is done with it; the last slot freed recycles a
// segment the owner has drained past.
func (m *mailbox) free(e *envelope) {
	e.release()
	seg := e.home
	if seg.gone++; seg.gone == laneSeg && seg != m.peers[e.src].head.Load() {
		seg.recycle()
	}
}

// recycle keeps every lane's segments for the next world once no rank of
// this one runs.
func (m *mailbox) recycle() {
	for i := range m.peers {
		p := &m.peers[i]
		for s := p.head.Load(); s != nil; s = p.head.Load() {
			p.head.Store(s.next.Load())
			s.recycle()
		}
		p.tail = nil
	}
}

// locate returns the earliest-drained envelope the selector accepts, its
// queue and the envelope before it there. Queues are in arrival order,
// so within one the first tag match is the earliest; across senders the
// drain stamp decides (earliest drained wins, so per-sender delivery
// stays non-overtaking).
func (m *mailbox) locate(sel recvSel) (q *queue, e, prev *envelope) {
	for _, src := range sel.senders() {
		sq := m.peers[src].queue(sel.ctx)
		if sq == nil {
			continue
		}
		var before *envelope
		for x := sq.first; x != nil; x, before = x.next, x {
			if sel.matchesTag(x.tag) {
				if e == nil || x.order < e.order {
					q, e, prev = sq, x, before
				}
				break // FIFO: later entries are younger
			}
		}
	}
	return q, e, prev
}

// get returns the earliest-drained envelope the selector accepts,
// unlinked from its queue unless peek is set; otherwise nil.
func (m *mailbox) get(sel recvSel, peek bool) *envelope {
	q, e, prev := m.locate(sel)
	if e == nil || peek {
		return e
	}
	return q.unlink(e, prev)
}

// notify wakes the owner so it can drain its lanes or re-evaluate its
// giveUp condition.
func (m *mailbox) notify() {
	m.mu.Lock()
	m.wake()
	m.mu.Unlock()
}

// wake wakes the owner if it sleeps, counting it awake first: the one
// way a rank asleep on its mailbox is woken (deadlock.go). Called with
// m.mu held.
func (m *mailbox) wake() {
	if m.sleeping.Load() {
		m.sleeping.Store(false)
		m.w.woken(1)
		m.cond.Broadcast()
	}
}

// sleep blocks the owner until a producer or a failure wakes it, then
// returns for the next round of Proc.await. Under the mutex it stores
// sleeping, re-checks the lanes of sel and of every posted receive, and
// counts itself asleep only if none has published since the round drained
// them (the other half of put's handshake). giveUp and the mailbox's
// closing abort the sleep by panic. The sleep that leaves no rank able to
// run reports the deadlock instead, which closes the mailbox.
func (p *Proc) sleep(sel recvSel, giveUp func() error) {
	m := &p.mbox
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		if m.closed.Load() {
			panic(m.closedErr())
		}
		if err := giveUp(); err != nil {
			panic(err)
		}
		m.sleeping.Store(true)
		if m.drain(sel) || p.drainPosted() {
			m.sleeping.Store(false)
			return
		}
		if !m.w.sleep() {
			m.cond.Wait()
			return
		}
		m.mu.Unlock()
		m.w.deadlocked()
		m.mu.Lock()
	}
}

func (m *mailbox) close(kind FailureKind) {
	m.mu.Lock()
	m.kind = kind
	m.closed.Store(true)
	m.wake()
	m.mu.Unlock()
}

// abort closes the mailbox for World.abort.
func (m *mailbox) abort() {
	m.mu.Lock()
	m.aborted.Store(true)
	m.closed.Store(true)
	m.wake()
	m.mu.Unlock()
}

// closedErr is what a wait on the closed mailbox panics with: the owner's
// failure, or errAborted once the world is aborted.
func (m *mailbox) closedErr() any {
	if m.aborted.Load() {
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
	env := envelope{
		ctx: c.s.id, src: p.rank, tag: tag, data: buf, pbuf: pb,
		arrive: end + vclock.Time(link.Latency), seq: p.reqSeq,
	}
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
		p.transmitFiltered(dstW, &env, link, end)
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
// (copy-on-retain); everything else is handed over as-is. The lane slot is
// freed and e must not be touched afterwards.
func (c *Comm) consume(e *envelope, t0 vclock.Time, anySrc bool) ([]byte, Status) {
	st := c.finishRecvTiming(e, t0, anySrc)
	data := e.retained()
	c.p.mbox.free(e)
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
	e := p.await("recv", s, c.failWatch(src), func() *envelope { return p.mbox.get(s, false) })
	return c.consume(e, t0, src == AnySource)
}

// Probe blocks until a matching message is available without receiving
// it. A message an earlier-posted Irecv claims is not reported.
func (c *Comm) Probe(src, tag int) Status {
	p := c.p
	s := c.sel(src, tag)
	e := p.await("probe", s, c.failWatch(src), func() *envelope { return p.mbox.get(s, true) })
	return Status{Source: c.s.rankOf(e.src), Tag: e.tag, Bytes: len(e.data)}
}

// Iprobe reports whether a matching message is available.
func (c *Comm) Iprobe(src, tag int) (bool, Status) {
	p := c.p
	s := c.sel(src, tag)
	p.mbox.drain(s)
	p.progress()
	e := p.mbox.get(s, true)
	if e == nil {
		return false, Status{}
	}
	return true, Status{Source: c.s.rankOf(e.src), Tag: e.tag, Bytes: len(e.data)}
}

// Sendrecv sends to dst and receives from src in one combined operation,
// overlapping the two transfers as MPI_Sendrecv does.
func (c *Comm) Sendrecv(dst, sendTag int, data []byte, src, recvTag int) ([]byte, Status) {
	sreq := c.Isend(dst, sendTag, data)
	buf, st := c.Recv(src, recvTag)
	sreq.Wait()
	return buf, st
}
