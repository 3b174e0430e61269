package mpi

// The executor of collective schedules and its per-call state. It issues,
// for each step, the blocking primitive of p2p.go — so what a schedule
// costs in simulated time is decided by the step list alone.

import (
	"fmt"
	"slices"
	"sync"

	"repro/internal/trace"
	"repro/internal/vclock"
)

// collRun is one rank's execution of one collective: the plan plus the
// buffers its steps move data between.
type collRun struct {
	plan
	buf    []byte   // the working buffer: payload, accumulator or bundle
	aux    []byte   // headers and scan prefixes
	in     [][]byte // blocks supplied by the caller, by rank
	blocks [][]byte // blocks of the result, by rank
	op     Op
	what   string  // the collective's name, for length-mismatch panics
	posted Request // the send a stPost started, until the next stWaitSends completes it
	// envs[i] is a message an stDrain took from the mailbox ahead of receive
	// step i's execution. Taking reads no clock; the step applies the timing.
	envs    []*envelope
	srcs    []int       // scratch of drain: the world ranks still to arrive
	drained vclock.Time // when the last drain finished: its receives' trace events start here
}

// runPool recycles collRuns — above all their step lists — between
// blocking collectives, of any rank of any world: jobs run few collectives
// per world, so a per-rank scratch would never warm up.
var runPool = sync.Pool{New: func() any {
	return &collRun{plan: plan{steps: make([]step, 0, 32), events: make([]collEvent, 0, 4)}}
}}

// newRun starts a blocking collective on c. The caller hands the run back
// with release once it has taken the result out.
func (c *Comm) newRun(what string, mine int) *collRun {
	x := runPool.Get().(*collRun)
	x.start(c, what, mine)
	return x
}

// release recycles a finished run. Everything it pointed to — the caller's
// buffers, the results, the closures of its local steps — is dropped.
func (x *collRun) release() {
	clear(x.steps)
	*x = collRun{plan: plan{steps: x.steps[:0], events: x.events[:0]}, envs: x.envs[:0], srcs: x.srcs[:0]}
	if cap(x.steps) <= 4096 { // one huge schedule must not pin its list in the pool
		runPool.Put(x)
	}
}

// done releases the run and returns out, the result taken from it.
func done[T any](x *collRun, out T) T {
	x.release()
	return out
}

// start readies x for a collective on c: an empty plan with the
// communicator's policy, and the entry check every collective makes — a
// collective over a communicator cannot complete once a member has failed,
// so every survivor reports the failure even when its own part of the
// communication would not have touched the failed process.
func (x *collRun) start(c *Comm, what string, mine int) {
	if c.Size() > 1 {
		c.collCheck()
	}
	x.what = what
	x.plan = plan{steps: x.steps, events: x.events, t: c.coll(), rank: c.rank, n: c.Size(), mine: mine, comm: c, memo: &c.p.world.auto}
}

// reduceLenCheck panics with the collective's name when a received
// contribution does not match the accumulator length.
func reduceLenCheck(what string, got, want int) {
	if got != want {
		panic(fmt.Sprintf("mpi: %s length mismatch: %d vs %d", what, got, want))
	}
}

// on returns the communicator step s travels on and s's peer as a rank of
// that communicator.
func (x *collRun) on(s *step) (*Comm, int) {
	switch s.tier {
	case tierNode:
		h := x.comm.hier()
		return h.node, h.idx[s.peer]
	case tierNet:
		h := x.comm.hier()
		return h.net, h.groupOf[s.peer]
	}
	return x.comm, s.peer
}

// payload returns the bytes a send step transmits.
func (x *collRun) payload(s *step) []byte {
	switch s.slot {
	case inAux:
		return x.aux
	case inPart:
		return x.in[s.idx]
	case inBlock:
		return x.blocks[s.idx]
	case inEntries:
		return bundleRun(x.buf, s.lo, s.hi)
	}
	if s.hi < 0 {
		return x.buf
	}
	return x.buf[s.lo:s.hi]
}

// deliver moves the payload of envelope e where receive step s wants it
// and frees its lane slot. Only stRecv retains the payload
// (copy-on-retain, see bufpool.go); every other kind consumes it in place.
func (x *collRun) deliver(s *step, e *envelope) {
	switch s.kind {
	case stRecv:
		data := e.retained()
		switch s.slot {
		case inAux:
			x.aux = data
		case inBlock:
			x.blocks[s.idx] = data
		default:
			x.buf = data
		}
	case stRecvInto:
		reduceLenCheck(x.what, len(e.data), s.hi-s.lo)
		copy(x.buf[s.lo:s.hi], e.data)
	case stRecvReduce:
		acc := x.payload(s)
		reduceLenCheck(x.what, len(e.data), len(acc))
		x.op(acc, e.data)
	case stRecvAppend:
		x.buf = append(x.buf, e.data...)
	case stRecvFrame:
		x.buf = bundleAppend(x.buf, s.peer, e.data)
	}
	x.comm.p.mbox.free(e)
}

// run executes the plan's steps in order with blocking primitives. The
// list may grow while it runs (a local step that appends the steps a
// header unlocked), so every iteration re-reads it. A receive on any tier
// gives up when any member of the calling communicator fails: a node tier
// cannot see the failure that made its leader leave.
func (x *collRun) run() {
	for i := 0; i < len(x.steps); i++ {
		s := &x.steps[i]
		if s.kind == stLocal {
			s.fn(x) // may grow the list and so move it: s is not used again
			continue
		}
		c, peer := x.on(s)
		switch s.kind {
		case stSend, stSendOwned:
			c.send(peer, s.tag, x.payload(s), s.mode())
		case stPost:
			x.posted = Request{kind: reqSend, c: c}
			c.isend(&x.posted, peer, s.tag, x.payload(s), s.mode())
		case stWaitSends:
			x.posted.Wait()
		case stBegin:
			if rec := c.p.world.rec; rec != nil {
				e := &x.events[s.idx]
				e.t0, e.w0 = c.p.clock.Now(), rec.NowNS()
			}
		case stEnd:
			x.emit(c, &x.events[s.idx])
		case stDrain:
			x.drain(c, s.tag, i+1, i+1+s.idx)
		default:
			t0, drained := c.p.clock.Now(), false
			var e *envelope
			if i < len(x.envs) && x.envs[i] != nil {
				e, x.envs[i], t0, drained = x.envs[i], nil, x.drained, true
			} else {
				sel := c.sel(peer, s.tag)
				e = c.p.await("coll", sel, x.comm.collWatch(), func() *envelope { return c.p.mbox.get(sel, false) })
			}
			c.finishRecvTiming(e, t0, drained) // a drained message was an any-source receive
			x.deliver(s, e)
		}
	}
}

// drain takes the messages of receive steps [first, end), all on c, out of
// the mailbox in arrival order — an any-source receive narrowed to the
// peers still missing, so a peer's message for a later collective stays
// queued — and parks each in envs for its step.
func (x *collRun) drain(c *Comm, tag, first, end int) {
	for len(x.envs) < end {
		x.envs = append(x.envs, nil)
	}
	world := func(k int) int { _, peer := x.on(&x.steps[k]); return c.s.members[peer] }
	x.srcs = x.srcs[:0]
	for k := first; k < end; k++ {
		x.srcs = append(x.srcs, world(k))
	}
	for len(x.srcs) > 0 {
		sel := recvSel{ctx: c.s.id, src: AnySource, tag: tag, srcs: x.srcs}
		e := c.p.await("coll", sel, x.comm.collWatch(), func() *envelope { return c.p.mbox.get(sel, false) })
		k := first
		for x.envs[k] != nil || world(k) != e.src {
			k++
		}
		x.envs[k] = e
		i := slices.Index(x.srcs, e.src)
		x.srcs = slices.Delete(x.srcs, i, i+1)
	}
	x.drained = c.p.clock.Now()
}

// emit records the KindColl event of a completed collective: the one
// emit site of every blocking collective, nested ones included.
func (x *collRun) emit(c *Comm, e *collEvent) {
	rec := c.p.world.rec
	if rec == nil {
		return
	}
	bytes := e.bytes
	if bytes < 0 {
		bytes = len(x.buf)
	}
	rec.Emit(c.p.rank, trace.Event{
		Rank: int32(c.p.rank), Kind: trace.KindColl, Peer: -1,
		Ctx: c.s.id, Bytes: int64(bytes), Name: e.name,
		Start: e.t0, End: c.p.clock.Now(),
		WallStart: e.w0, WallEnd: rec.NowNS(),
		A0: e.alg,
	})
}
