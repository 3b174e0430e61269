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
// its lane, where it stays until its receive frees it (mailbox.free).
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

// mailbox holds the messages addressed to one process: one lane per
// sender world rank, which only that sender fills (on TCP, its
// connection's pump), drained by the owner into a private index — per
// sender, a FIFO per context of pointers into the lane slots, so no
// receive hashes — where it matches without a lock. The mutex serves the
// sleep/wake handshake alone (Proc.sleep, wake).
type mailbox struct {
	lanes  []lane   // by sender world rank
	from   []sender // the owner's index, by sender world rank
	stamp  int64    // the owner's last drain stamp (envelope.order)
	dedupe bool     // arms sender.maxSeq; set before Run with a link filter

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

// lane is the single-producer queue from one sender to one receiver:
// envelopes by value in segments. The producer fills a slot, then
// publishes it with one atomic store of the segment's count.
type lane struct {
	tail  *segment                // the producer's segment
	head  atomic.Pointer[segment] // the segment the owner drains
	spare atomic.Pointer[segment] // a recycled segment, for the producer
}

type segment struct {
	n     atomic.Int32 // slots published
	next  atomic.Pointer[segment]
	slots [laneSeg]envelope
	taken int32 // owner: slots drained
	gone  int32 // owner: slots drained, then freed or dropped
}

// freeSegs keeps recycled segments for any lane: at most 1 024 (1.5 MB),
// twice the most the paper-apps bench workload ever leaves free. It is
// not a sync.Pool, which each collection empties: paper-apps collects
// about seven times per op, and its lanes re-allocated their backlogs.
var freeSegs = make(chan *segment, 1024)

func newSegment() *segment {
	select {
	case s := <-freeSegs:
		return s
	default:
		return new(segment)
	}
}

// push copies e into the lane and publishes it. Producer only.
func (l *lane) push(e *envelope) {
	s := l.tail
	if s == nil {
		s = newSegment()
		l.tail = s
		l.head.Store(s)
	}
	i := s.n.Load()
	if i == laneSeg {
		next := l.spare.Swap(nil)
		if next == nil {
			next = newSegment()
		}
		s.next.Store(next)
		l.tail, s, i = next, next, 0
	}
	s.slots[i] = *e
	s.n.Store(i + 1)
}

// recycle empties s, which nothing reaches any more, for the spare of
// lane l (when non-nil) or else for freeSegs.
func (s *segment) recycle(l *lane) {
	*s = segment{}
	if l == nil || !l.spare.CompareAndSwap(nil, s) {
		select {
		case freeSegs <- s:
		default:
		}
	}
}

// sender holds one sender's drained messages, a FIFO per context, and
// maxSeq, the highest sequence drained from it. Per-sender sequences
// arrive monotonically (a lane is FIFO, and so is a TCP connection), so a
// frame whose sequence does not advance maxSeq is a duplicate injected on
// the wire.
type sender struct {
	fifos  []fifo
	maxSeq int64
}

// fifo is the queue of one (sender, context) pair: q[head:], oldest first.
// Once empty its context is drained, and the next new context reuses it.
type fifo struct {
	ctx  int64
	head int
	q    []*envelope
}

const drained = math.MinInt64 // no communicator has this context id

// find returns the sender's FIFO for ctx, or nil.
func (s *sender) find(ctx int64) *fifo {
	for i := range s.fifos {
		if s.fifos[i].ctx == ctx {
			return &s.fifos[i]
		}
	}
	return nil
}

// push appends e to the FIFO of its context. A full backing array is
// compacted in place when a take has freed a slot and doubled only when
// every slot is queued, so a queue that never drains keeps its capacity
// within twice its deepest backlog.
func (s *sender) push(e *envelope) {
	f := s.find(e.ctx)
	if f == nil {
		if f = s.find(drained); f == nil {
			s.fifos = append(s.fifos, fifo{})
			f = &s.fifos[len(s.fifos)-1]
		}
		f.ctx = e.ctx
	}
	if len(f.q) == cap(f.q) {
		if f.head == 0 {
			f.q = append(make([]*envelope, 0, max(2*len(f.q), 2)), f.q...)
		} else {
			n := copy(f.q, f.q[f.head:])
			clear(f.q[n:])
			f.q, f.head = f.q[:n], 0
		}
	}
	f.q = append(f.q, e)
}

// take removes and returns q[i], moving the envelopes queued before it up
// one slot, so taking the oldest is O(1).
func (f *fifo) take(i int) *envelope {
	e := f.q[i]
	copy(f.q[f.head+1:i+1], f.q[f.head:i])
	f.q[f.head] = nil
	if f.head++; f.head == len(f.q) {
		f.ctx, f.head, f.q = drained, 0, f.q[:0]
	}
	return e
}

func (m *mailbox) init(senders int) {
	m.cond = sync.NewCond(&m.mu)
	m.lanes = make([]lane, senders)
	m.from = make([]sender, senders)
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
	m.lanes[e.src].push(e)
	if m.sleeping.Load() {
		m.notify()
	}
}

// drain indexes what the lanes sel can take from have published,
// stamping each envelope's order and suppressing wire duplicates, and
// reports whether it moved anything. Owner only.
func (m *mailbox) drain(sel recvSel) bool {
	srcs, moved := sel.srcs, false
	if sel.src != AnySource {
		srcs = []int{sel.src}
	}
	for _, src := range srcs {
		l, s := &m.lanes[src], &m.from[src]
		for seg := l.head.Load(); seg != nil; seg = l.head.Load() {
			for n := seg.n.Load(); seg.taken < n; seg.taken++ {
				moved = true
				e := &seg.slots[seg.taken]
				if m.dedupe && e.seq > 0 {
					if e.seq <= s.maxSeq {
						e.release() // duplicate frame suppressed
						seg.gone++
						continue
					}
					s.maxSeq = e.seq
				}
				m.stamp++
				e.order, e.home = m.stamp, seg
				s.push(e)
			}
			next := seg.next.Load()
			if seg.taken < laneSeg || next == nil {
				break
			}
			l.head.Store(next)
			if seg.gone == laneSeg {
				seg.recycle(l)
			}
		}
	}
	return moved
}

// free hands e's slot back once the receive that took e is done with it;
// the last slot freed recycles a segment the owner has drained past.
func (m *mailbox) free(e *envelope) {
	l, seg := &m.lanes[e.src], e.home
	if seg.gone++; seg.gone == laneSeg && seg != l.head.Load() {
		seg.recycle(l)
	}
}

// recycle keeps every lane's segments for the next world once no rank of
// this one runs.
func (m *mailbox) recycle() {
	for i := range m.lanes {
		l := &m.lanes[i]
		for s := l.head.Load(); s != nil; s = l.head.Load() {
			l.head.Store(s.next.Load())
			s.recycle(nil)
		}
		if s := l.spare.Swap(nil); s != nil {
			s.recycle(nil)
		}
		l.tail = nil
	}
}

// locate returns the FIFO and index of the earliest-drained envelope the
// selector accepts. FIFOs are in arrival order, so within one the first
// tag match is the earliest; across senders the drain stamp decides
// (earliest drained wins, so per-sender delivery stays non-overtaking).
func (m *mailbox) locate(sel recvSel) (*fifo, int) {
	srcs := sel.srcs
	if sel.src != AnySource {
		srcs = []int{sel.src}
	}
	var best *fifo
	bestI := 0
	for _, src := range srcs {
		f := m.from[src].find(sel.ctx)
		if f == nil {
			continue
		}
		for i := f.head; i < len(f.q); i++ {
			if sel.matchesTag(f.q[i].tag) {
				if best == nil || f.q[i].order < best.q[bestI].order {
					best, bestI = f, i
				}
				break // FIFO: later entries are younger
			}
		}
	}
	return best, bestI
}

// get returns the earliest-drained envelope the selector accepts, removed
// from the index unless peek is set; otherwise nil.
func (m *mailbox) get(sel recvSel, peek bool) *envelope {
	f, i := m.locate(sel)
	if f == nil {
		return nil
	}
	if peek {
		return f.q[i]
	}
	return f.take(i)
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
	e.release()
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
