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
// consumed yet: per sender world rank, one FIFO per context, so a directed
// receive inspects one short per-pair FIFO instead of scanning the whole
// backlog, and no receive hashes. put, awaitArrival and the snapshot of
// enq form the only cross-goroutine interaction in the simulation.
type mailbox struct {
	mu      sync.Mutex
	cond    *sync.Cond
	from    []sender // by sender world rank
	closed  bool
	aborted bool        // closed by World.abort rather than a failure
	kind    FailureKind // why the owner failed, for error reporting
	owner   int         // world rank, for failure reporting
	w       *World
	// sleeping is set while the owner waits on cond and no waker has
	// counted it awake (wake).
	sleeping bool
	// enq is the monotone enqueue counter; it stamps envelope.order. It
	// is written under mu and snapshotted without it (Proc.await, Iprobe).
	enq atomic.Int64
	// dedupe arms sender.maxSeq, the duplicate-suppression window of the
	// reliable delivery path. Set only when a link filter is installed;
	// without one sequences always advance and the check would never fire.
	dedupe bool
}

// sender holds one sender's queued messages, a FIFO per context, and
// maxSeq, the highest sequence consumed from it. Per-sender sequences
// arrive monotonically (in-process delivery is synchronous with the send,
// the TCP transport is FIFO per connection), so a frame whose sequence
// does not advance maxSeq is a duplicate injected on the wire.
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
	m.from = make([]sender, senders)
}

// enableDedupe arms duplicate suppression; called before Run when a link
// filter (which may duplicate frames) is installed.
func (m *mailbox) enableDedupe() {
	m.mu.Lock()
	m.dedupe = true
	m.mu.Unlock()
}

func (m *mailbox) put(e *envelope) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		releaseEnvelope(e) // message to a failed process disappears
		return
	}
	s := &m.from[e.src]
	if m.dedupe && e.seq > 0 {
		if e.seq <= s.maxSeq {
			m.mu.Unlock()
			releaseEnvelope(e) // duplicate frame suppressed
			return
		}
		s.maxSeq = e.seq
	}
	e.order = m.enq.Add(1) - 1
	s.push(e)
	m.wake()
	m.mu.Unlock()
}

// locate returns the FIFO and index of the earliest-queued envelope the
// selector accepts. FIFOs are in arrival order, so within one the first
// tag match is the earliest; across senders the enqueue order decides
// (earliest queued wins, so per-sender delivery stays non-overtaking).
// Called with m.mu held.
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

// notify wakes the owner so it can re-evaluate its giveUp condition.
func (m *mailbox) notify() {
	m.mu.Lock()
	m.wake()
	m.mu.Unlock()
}

// wake wakes the owner if it sleeps, counting it awake first: the one
// way a rank asleep on its mailbox is woken (deadlock.go). Called with
// m.mu held.
func (m *mailbox) wake() {
	if m.sleeping {
		m.sleeping = false
		m.w.woken(1)
		m.cond.Broadcast()
	}
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
	f, i := m.locate(sel)
	if f == nil || f.q[i].order >= before {
		return nil
	}
	if peek {
		return f.q[i]
	}
	return f.take(i)
}

// awaitArrival blocks until the enqueue counter moves past seen — some
// message, not necessarily a matching one, arrived after the snapshot was
// taken — or the owner fails, or giveUp reports an error. Failure
// surfaces by panic; the caller re-runs its matching attempt on return.
// Wakeups without an enqueue (failure notifications broadcast to all
// mailboxes) re-check the abort conditions and sleep again. The sleep
// that leaves no rank able to run reports the deadlock instead, which
// closes the mailbox.
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
		m.sleeping = true
		if m.w.sleep() {
			m.mu.Unlock()
			m.w.deadlocked()
			m.mu.Lock()
			continue
		}
		m.cond.Wait()
	}
}

func (m *mailbox) close(kind FailureKind) {
	m.mu.Lock()
	m.closed = true
	m.kind = kind
	m.wake()
	m.mu.Unlock()
}

// abort closes the mailbox for World.abort.
func (m *mailbox) abort() {
	m.mu.Lock()
	m.closed, m.aborted = true, true
	m.wake()
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
	buf, st := c.Recv(src, recvTag)
	sreq.Wait()
	return buf, st
}
