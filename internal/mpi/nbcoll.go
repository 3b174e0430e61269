package mpi

// Nonblocking collectives. Ibcast and Iallreduce build the exact
// communication tree of their blocking counterparts (binomial broadcast,
// reduce-to-0 + broadcast) as a schedule of point-to-point steps and
// execute it incrementally:
//
//   - At the post, the leading send steps run immediately — an Isend-like
//     burst that charges one overhead per send — stopping at the first
//     receive step. A rank whose schedule starts with a receive (every
//     non-root in a broadcast) does nothing at the post.
//   - While the operation is pending, the progress engine claims arrived
//     envelopes for the schedule's receive steps (claim reads no clocks;
//     see request.go). Within one schedule every receive has a distinct
//     peer, so claiming ahead of execution can never reorder a per-pair
//     FIFO.
//   - Wait executes the remaining steps in schedule order against a
//     private virtual cursor: a receive step raises the cursor to
//     max(cursor, arrival) + overhead, a send step anchors its transfer
//     at the cursor and advances it by the overhead. The cursor starts at
//     the later of the post time and the Wait entry, so compute performed
//     between post and Wait overlaps the schedule's communication; at the
//     end the rank's clock absorbs the cursor.
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

// nbKind is what one schedule step does with the schedule buffer.
type nbKind uint8

const (
	nbSendBuf    nbKind = iota // send the current buffer to peer
	nbRecvBuf                  // receive from peer, replacing the buffer
	nbRecvReduce               // receive from peer, folding into the buffer
)

type nbStep struct {
	kind nbKind
	peer int       // communicator rank
	env  *envelope // claimed by the progress engine, not yet executed
}

// nbSched is the state of one posted nonblocking collective.
type nbSched struct {
	name   string // "ibcast" or "iallreduce", for traces
	tag    int
	buf    []byte
	op     Op     // nbRecvReduce operator (Iallreduce)
	opName string // for the length-mismatch panic
	steps  []nbStep
	next   int         // first unexecuted step
	st     vclock.Time // virtual cursor of the executed prefix
}

// Ibcast starts a nonblocking broadcast of root's data along the binomial
// tree of the blocking Bcast. Wait returns the received payload (root
// gets data back unchanged).
func (c *Comm) Ibcast(root int, data []byte) *Request {
	c.checkRank("Ibcast", root)
	sc := &nbSched{name: "ibcast", buf: data}
	n := c.Size()
	if n > 1 {
		c.collCheck()
		sc.tag = c.nbTag()
		vrank := (c.rank - root + n) % n
		mask := 1
		for mask < n {
			if vrank&mask != 0 {
				sc.steps = append(sc.steps, nbStep{kind: nbRecvBuf, peer: (c.rank - mask + n) % n})
				break
			}
			mask <<= 1
		}
		mask >>= 1
		for mask > 0 {
			if vrank+mask < n {
				sc.steps = append(sc.steps, nbStep{kind: nbSendBuf, peer: (c.rank + mask) % n})
			}
			mask >>= 1
		}
	}
	return c.postColl(sc, len(data))
}

// Iallreduce starts a nonblocking allreduce: the reduce-to-rank-0 tree of
// the blocking Reduce followed by the broadcast tree of the blocking
// Bcast, folded into one schedule. Wait returns the combined result on
// every member. All members must pass equal-length data; op must be
// associative and commutative.
func (c *Comm) Iallreduce(data []byte, op Op) *Request {
	sc := &nbSched{name: "iallreduce", buf: append([]byte(nil), data...), op: op, opName: "Iallreduce"}
	n := c.Size()
	if n > 1 {
		c.collCheck()
		sc.tag = c.nbTag()
		if c.allreduceAlgFor(n, len(data)) == AllreduceHier {
			// Hierarchy-aware schedule: node-tier reduce to the machine
			// leader, redbcast among leaders, node-tier broadcast (see
			// hier.go). The selection is agreed (all members resolve the
			// same algorithm from the same tuning and placement).
			c.hierAllreduceSteps(sc)
			return c.postColl(sc, len(data))
		}
		// Reduce towards rank 0: fold each child rank|mask, then hand the
		// accumulator to the parent rank&^mask at this rank's lowest set
		// bit. Fold order matches the blocking Reduce exactly.
		mask := 1
		for mask < n {
			if c.rank&mask != 0 {
				sc.steps = append(sc.steps, nbStep{kind: nbSendBuf, peer: c.rank &^ mask})
				break
			}
			if child := c.rank | mask; child < n {
				sc.steps = append(sc.steps, nbStep{kind: nbRecvReduce, peer: child})
			}
			mask <<= 1
		}
		// Broadcast the result from rank 0 down the binomial tree.
		recvMask := 1
		for recvMask < n {
			if c.rank&recvMask != 0 {
				sc.steps = append(sc.steps, nbStep{kind: nbRecvBuf, peer: c.rank - recvMask})
				break
			}
			recvMask <<= 1
		}
		recvMask >>= 1
		for recvMask > 0 {
			if c.rank+recvMask < n {
				sc.steps = append(sc.steps, nbStep{kind: nbSendBuf, peer: c.rank + recvMask})
			}
			recvMask >>= 1
		}
	}
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
	for sc.next < len(sc.steps) && sc.steps[sc.next].kind == nbSendBuf {
		sc.execSend(c, &sc.steps[sc.next])
		sc.next++
	}
	p.clock.AbsorbAtLeast(sc.st)
	if sc.next < len(sc.steps) {
		p.eng.colls = append(p.eng.colls, r)
	}
	return r
}

// claim pins arrived envelopes to the schedule's unexecuted receive
// steps. Timing-neutral: ownership only.
func (sc *nbSched) claim(c *Comm) {
	for i := sc.next; i < len(sc.steps); i++ {
		s := &sc.steps[i]
		if s.kind == nbSendBuf || s.env != nil {
			continue
		}
		s.env = c.p.mbox.tryGet(c.sel(s.peer, sc.tag), false)
	}
}

// execSend runs one send step: the transfer anchors at the cursor instead
// of the rank's clock, and the cursor advances by the send overhead. The
// payload is copied (the schedule buffer stays reusable), mirroring the
// forwarding Send of the blocking trees.
func (sc *nbSched) execSend(c *Comm, s *nbStep) {
	_, cpuFree := c.sendCore(s.peer, sc.tag, sc.buf, true, sc.st, nil)
	sc.st = cpuFree
}

// execRecv runs one receive step against the envelope e: the cursor
// absorbs the arrival and advances by the receive overhead, statistics
// and the trace record the transfer, and the payload lands in the
// schedule buffer (replaced or folded, by step kind).
func (sc *nbSched) execRecv(c *Comm, s *nbStep, e *envelope) {
	p := c.p
	p.opTick()
	link := p.world.cluster.Link(p.world.place[e.src], p.machine)
	before := sc.st
	if e.arrive > sc.st {
		sc.st = e.arrive
	}
	sc.st += vclock.Time(link.Overhead)
	p.stats.BytesRecv += int64(len(e.data))
	p.stats.MsgsRecv++
	if rec := p.world.rec; rec != nil {
		wall := rec.NowNS()
		rec.Emit(p.rank, trace.Event{
			Rank: int32(p.rank), Kind: trace.KindRecv, Peer: int32(e.src),
			Tag: int32(e.tag), Ctx: e.ctx, Bytes: int64(len(e.data)),
			Start: before, End: sc.st, WallStart: wall, WallEnd: wall,
		})
	}
	if s.kind == nbRecvReduce {
		reduceLenCheck(sc.opName, len(e.data), len(sc.buf))
		sc.op(sc.buf, e.data)
		e.data = nil
		releaseEnvelope(e)
		return
	}
	// nbRecvBuf: retain the payload as the new schedule buffer,
	// copy-on-retain for pooled backing (see bufpool.go).
	data := e.data
	if e.pbuf != nil {
		data = append([]byte(nil), e.data...)
	}
	e.data = nil
	releaseEnvelope(e)
	sc.buf = data
}

// wait executes the remaining schedule steps in order, blocking for
// receive steps the engine has not claimed yet, and absorbs the final
// cursor into the rank's clock. The cursor first rises to the rank's
// current time: steps that have not run yet cannot predate the Wait.
func (sc *nbSched) wait(c *Comm) []byte {
	p := c.p
	if now := p.clock.Now(); now > sc.st {
		sc.st = now
	}
	for sc.next < len(sc.steps) {
		s := &sc.steps[sc.next]
		if s.kind == nbSendBuf {
			sc.execSend(c, s)
		} else {
			e := s.env
			s.env = nil
			if e == nil {
				e = c.mboxGet("coll", c.sel(s.peer, sc.tag), c.collWatch())
			}
			sc.execRecv(c, s, e)
		}
		sc.next++
	}
	p.clock.AbsorbAtLeast(sc.st)
	return sc.buf
}

// tryFinish executes as many remaining steps as possible without
// blocking and reports whether the schedule completed; on completion the
// rank's clock absorbs the cursor. Called by Test.
func (sc *nbSched) tryFinish(c *Comm) bool {
	p := c.p
	if now := p.clock.Now(); now > sc.st {
		sc.st = now
	}
	for sc.next < len(sc.steps) {
		s := &sc.steps[sc.next]
		switch {
		case s.kind == nbSendBuf:
			sc.execSend(c, s)
		case s.env != nil:
			e := s.env
			s.env = nil
			sc.execRecv(c, s, e)
		default:
			return false
		}
		sc.next++
	}
	p.clock.AbsorbAtLeast(sc.st)
	return true
}
