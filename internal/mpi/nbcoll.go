package mpi

// Nonblocking collectives. Ibcast and Iallreduce build the schedule their
// blocking counterparts would run under the communicator's CollTuning
// (collsched.go) and execute it incrementally against a private virtual
// cursor:
//
//   - At the post, the leading send steps run immediately — an Isend-like
//     burst that charges one overhead per send — stopping at the first
//     receive step. A rank whose schedule starts with a receive (every
//     non-root in a broadcast) does nothing at the post.
//   - While the operation is pending, the progress engine claims arrived
//     envelopes for the schedule's receive steps (claim reads no clocks;
//     see request.go). A schedule may receive from one peer many times (a
//     ring, a segmented pipeline), and all its traffic shares one tag, so
//     a claim always goes to the earliest unclaimed receive of its peer:
//     claiming ahead of execution can never reorder a per-pair FIFO.
//   - Wait executes the remaining steps in schedule order: a receive step
//     raises the cursor to max(cursor, arrival) + overhead, a send step
//     anchors its transfer at the cursor and advances it by the overhead
//     (every send is posted: nothing waits for the interface). The cursor
//     starts at the later of the post time and the Wait entry, so compute
//     performed between post and Wait overlaps the schedule's
//     communication; at the end the rank's clock absorbs the cursor.
//
// Every rank executes its own schedule in a deterministic order with
// deterministic timing inputs (arrival times come from the virtual model),
// so virtual clocks are bit-reproducible even though claiming is driven
// by wall-clock arrival order. Test on a collective request executes only
// the steps whose messages have already been claimed — like Test on a
// receive, it is documented as wall-sensitive.

import (
	"repro/internal/trace"
	"repro/internal/vclock"
)

// nbcollTagBase is the top of the tag space reserved for nonblocking
// collectives, far below the -100..-111 block of the blocking ones. Each
// posted operation takes one tag below the base, so several nonblocking
// collectives can be in flight on one communicator without their traffic
// crossing.
const nbcollTagBase = -(1 << 20)

// nbTag returns the agreed tag for the next nonblocking collective on
// this communicator. Members post collectives in the same order (the
// usual collective-call contract), so the per-handle counter agrees.
func (c *Comm) nbTag() int {
	c.nbSeq++
	return nbcollTagBase - int(c.nbSeq)
}

// nbSched is the state of one posted nonblocking collective: a collRun
// whose steps all travel on the posting communicator under one tag.
type nbSched struct {
	collRun
	name string // "ibcast" or "iallreduce", for traces
	tag  int
	next int         // first unexecuted step
	st   vclock.Time // virtual cursor of the executed prefix
}

func (c *Comm) newSched(name, what string, mine int) *nbSched {
	sc := &nbSched{name: name}
	sc.start(c, what, mine)
	if c.Size() > 1 {
		sc.tag = c.nbTag()
	}
	return sc
}

// Ibcast starts a nonblocking broadcast of root's data with the algorithm
// the blocking Bcast would use. Wait returns the received payload (root
// gets data back unchanged).
func (c *Comm) Ibcast(root int, data []byte) *Request {
	c.checkRank("Ibcast", root)
	sc := c.newSched("ibcast", "Ibcast", len(data))
	sc.buf = data
	length := -1
	if c.rank == root {
		length = len(data)
	}
	sc.bcast(sc.self(), root, length)
	return c.postColl(sc, len(data))
}

// Iallreduce starts a nonblocking allreduce with the algorithm the
// blocking Allreduce would use. Wait returns the combined result on every
// member. All members must pass equal-length data; op must be associative
// and commutative.
func (c *Comm) Iallreduce(data []byte, op Op) *Request {
	sc := c.newSched("iallreduce", "Iallreduce", len(data))
	sc.buf, sc.op = append([]byte(nil), data...), op
	sc.allreduce(sc.self(), len(data))
	return c.postColl(sc, len(data))
}

// postColl registers a built schedule with the progress engine and runs
// its leading send burst. The posting event (KindColl with A3 = 1 and the
// request id in A2) is emitted at the post, where the agreed posting
// order holds, so the collective-sequence check of hmpiverify stays
// sound for nonblocking collectives too.
func (c *Comm) postColl(sc *nbSched, bytes int) *Request {
	p := c.p
	p.progress()
	p.reqID++
	r := &Request{id: p.reqID, kind: reqColl, c: c, sched: sc}
	if rec := p.world.rec; rec != nil {
		now := p.clock.Now()
		wall := rec.NowNS()
		rec.Emit(p.rank, trace.Event{
			Rank: int32(p.rank), Kind: trace.KindColl, Peer: -1,
			Ctx: c.s.id, Bytes: int64(bytes), Name: sc.name,
			Start: now, End: now, WallStart: wall, WallEnd: wall,
			A2: r.id, A3: 1,
		})
	}
	sc.st = p.clock.Now()
	if !sc.advance(false) {
		p.eng.colls = append(p.eng.colls, r)
	}
	p.clock.AbsorbAtLeast(sc.st)
	return r
}

// claim pins arrived envelopes to the schedule's unexecuted receive
// steps, each peer's in step order. Timing-neutral: ownership only.
func (sc *nbSched) claim() {
	for len(sc.envs) < len(sc.steps) {
		sc.envs = append(sc.envs, nil)
	}
	var dry []int // peers with an unclaimed receive and nothing queued: their later receives must wait
claiming:
	for i := sc.next; i < len(sc.steps); i++ {
		s := &sc.steps[i]
		if !s.kind.isRecv() || sc.envs[i] != nil {
			continue
		}
		for _, peer := range dry {
			if peer == s.peer {
				continue claiming
			}
		}
		if sc.envs[i] = sc.comm.p.mbox.tryGet(sc.comm.sel(s.peer, sc.tag), false); sc.envs[i] == nil {
			dry = append(dry, s.peer)
		}
	}
}

// advance executes steps in order — raising the cursor first to the
// rank's current time: steps that have not run yet cannot predate the
// call — until the schedule ends (true) or, unless block is set, a receive
// step has no claimed message (false). With block it waits for such
// messages. Event steps are the blocking executor's business.
func (sc *nbSched) advance(block bool) bool {
	c := sc.comm
	if now := c.p.clock.Now(); now > sc.st {
		sc.st = now
	}
	for ; sc.next < len(sc.steps); sc.next++ {
		s := &sc.steps[sc.next]
		switch {
		case s.kind == stLocal:
			s.fn(&sc.collRun) // may grow the list and so move it: s is not used again
		case s.kind.isSend():
			// The transfer anchors at the cursor instead of the rank's
			// clock, and the cursor advances by the send overhead.
			_, sc.st = c.sendCore(s.peer, sc.tag, sc.payload(s), s.mode(), sc.st, nil)
		case s.kind.isRecv():
			var e *envelope
			if sc.next < len(sc.envs) {
				e, sc.envs[sc.next] = sc.envs[sc.next], nil
			}
			if e == nil {
				if !block {
					return false
				}
				e = c.mboxGet("coll", c.sel(s.peer, sc.tag), c.collWatch())
			}
			sc.recv(s, e)
		}
	}
	return true
}

// recv runs one receive step against the envelope e: the cursor absorbs
// the arrival and advances by the receive overhead, and the payload lands
// where the step says.
func (sc *nbSched) recv(s *step, e *envelope) {
	p := sc.comm.p
	p.opTick()
	before := sc.st
	sc.st = max(sc.st, e.arrive) + vclock.Time(p.world.cluster.Link(p.world.place[e.src], p.machine).Overhead)
	p.noteRecv(e, before, sc.st, false)
	sc.deliver(s, e)
}

// wait executes the remaining schedule steps, blocking for messages the
// engine has not claimed yet, and absorbs the final cursor into the
// rank's clock.
func (sc *nbSched) wait() []byte {
	sc.advance(true)
	sc.comm.p.clock.AbsorbAtLeast(sc.st)
	return sc.buf
}

// tryFinish executes as many remaining steps as possible without
// blocking and reports whether the schedule completed; on completion the
// rank's clock absorbs the cursor. Called by Test.
func (sc *nbSched) tryFinish() bool {
	if !sc.advance(false) {
		return false
	}
	sc.comm.p.clock.AbsorbAtLeast(sc.st)
	return true
}
