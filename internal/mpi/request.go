package mpi

// Nonblocking point-to-point operations and the per-rank progress engine.
//
// A Request is created by Isend/Irecv and completed by Wait or Test. The
// engine is the rank's ledger of posted receives; every MPI call gives it
// a chance to match them.
//
// The engine splits each operation into two halves with very different
// rules:
//
//   - Claiming is opportunistic and timing-neutral: progress() matches
//     arrived envelopes to pending receives, in posting order. A claim
//     only decides ownership of a message; it reads and writes no virtual
//     clock, so the wall-clock moment a message happens to arrive can
//     never change a simulated time.
//   - Execution is timing-bearing and happens only at deterministic
//     program points: Isend charges its overhead at the post, a receive
//     charges arrival + overhead when Wait (or Test, the one documented
//     wall-sensitive operation) consumes it.
//
// Overlap accounting falls out of the clock algebra: a receive consumed
// at Wait absorbs the message's arrival time with AbsorbAtLeast — a max,
// not a sum — so communication that finished while the rank was computing
// costs nothing extra, while a Wait posted too early still blocks the
// clock until the arrival. Nothing is ever double-billed.

import (
	"repro/internal/trace"
	"repro/internal/vclock"
)

// reqKind discriminates what a Request is waiting for.
type reqKind uint8

const (
	reqSend reqKind = iota // local buffer reusable when the NIC finishes
	reqRecv                // an envelope matched and consumed
)

// Request represents an outstanding nonblocking operation. A receive
// request is on the heap — the progress engine holds it until it is
// matched. A send request is only a finish time and an id: the one a
// caller drops (a fire-and-forget IsendOwned) or completes before returning
// (Sendrecv) stays on the caller's stack.
type Request struct {
	id   int64 // per-rank request id from 1; 0 for internal requests
	kind reqKind
	c    *Comm
	done bool

	// Receive requests.
	src  int // requested source (comm rank or AnySource)
	tag  int
	rsel recvSel   // selector, cached at post time
	env  *envelope // matched by the engine, not yet consumed

	// Send requests.
	sendEnd vclock.Time // when the interface finishes the transfer

	data   []byte
	status Status
}

// progressState is the per-rank progress engine: the posted receives, in
// posting order. It is touched only by the rank's own goroutine (a Proc is
// goroutine-confined), so it needs no locking.
type progressState struct {
	recvQ  []*Request // posted Irecvs not yet matched to an envelope
	active bool       // re-entrancy guard
}

// overlaps reports whether any pending unmatched receive could match a
// message the given selector also matches. Blocking Recv uses it to
// decide whether it must route through the engine so posting order — not
// wakeup order — assigns messages. AnySource is treated conservatively:
// any two wildcards on one context overlap.
func (g *progressState) overlaps(ctx int64, s recvSel) bool {
	for _, r := range g.recvQ {
		if r.rsel.ctx != ctx {
			continue
		}
		if r.rsel.tag != AnyTag && s.tag != AnyTag && r.rsel.tag != s.tag {
			continue
		}
		if r.rsel.src == AnySource || s.src == AnySource || r.rsel.src == s.src {
			return true
		}
	}
	return false
}

// progress advances the engine: matches arrived envelopes to pending
// receives in posting order. Claiming is timing-neutral (see the package
// comment above), so calling this at arbitrary points is safe for
// determinism.
func (p *Proc) progress() {
	if p.eng.active || len(p.eng.recvQ) == 0 {
		return
	}
	p.eng.active = true
	q := p.eng.recvQ
	kept := q[:0]
	for _, r := range q {
		if r.env == nil {
			r.env = p.mbox.tryGet(r.rsel, false)
		}
		if r.env == nil {
			kept = append(kept, r)
		}
	}
	for i := len(kept); i < len(q); i++ {
		q[i] = nil
	}
	p.eng.recvQ = kept
	p.eng.active = false
}

// emitReqPost records the zero-duration posting event of a nonblocking
// operation (isend/irecv), carrying the request id in A2.
func (p *Proc) emitReqPost(kind trace.Kind, id int64, peer, tag int, ctx int64, bytes int) {
	r := p.world.rec
	if r == nil {
		return
	}
	now := p.clock.Now()
	wall := r.NowNS()
	r.Emit(p.rank, trace.Event{
		Rank: int32(p.rank), Kind: kind, Peer: int32(peer),
		Tag: int32(tag), Ctx: ctx, Bytes: int64(bytes),
		Start: now, End: now, WallStart: wall, WallEnd: wall,
		A2: id,
	})
}

// emitReqDone records the completion event of a request: a wait interval
// (KindWait, from Wait entry to completion) or a successful test
// (KindTest, instantaneous, A0 = 1). A2 carries the request id.
func (p *Proc) emitReqDone(kind trace.Kind, id int64, t0 vclock.Time, a0 int64) {
	r := p.world.rec
	if r == nil {
		return
	}
	wall := r.NowNS()
	r.Emit(p.rank, trace.Event{
		Rank: int32(p.rank), Kind: kind, Peer: -1,
		Start: t0, End: p.clock.Now(), WallStart: wall, WallEnd: wall,
		A0: a0, A2: id,
	})
}

// Isend starts a nonblocking send. The sender's clock advances only by the
// message overhead; the transfer occupies the interface in the background.
// Wait on the returned request completes when the local buffer is reusable.
func (c *Comm) Isend(dst, tag int, data []byte) *Request {
	return c.isend(&Request{kind: reqSend, c: c}, dst, tag, data, payCopy)
}

// IsendOwned is Isend without the defensive copy: the caller cedes ownership
// of data and must not modify it afterwards. Use it on hot paths that send
// many freshly built (or immutable) buffers.
func (c *Comm) IsendOwned(dst, tag int, data []byte) *Request {
	return c.isend(&Request{kind: reqSend, c: c}, dst, tag, data, payCeded)
}

// isend is the body of every nonblocking send: it sends, numbers the fresh
// send request r, records its posting event and returns r. Isend and
// IsendOwned only make the Request, so they inline into their callers and
// a request the caller does not keep never reaches the heap.
func (c *Comm) isend(r *Request, dst, tag int, data []byte, mode payloadMode) *Request {
	r.sendEnd = c.sendCommon(dst, tag, data, mode)
	p := c.p
	p.reqID++
	r.id = p.reqID
	p.emitReqPost(trace.KindIsend, r.id, c.s.members[dst], tag, c.s.id, len(data))
	return r
}

// Irecv starts a nonblocking receive. The progress engine matches posted
// receives against arriving messages in posting order; Wait applies the
// receive timing and hands over the payload. A payload delivered into a
// posted Irecv is owned by the request until Wait or Test returns it —
// pooled buffers are not recycled under it.
func (c *Comm) Irecv(src, tag int) *Request {
	p := c.p
	s := c.sel(src, tag)
	p.reqID++
	r := &Request{id: p.reqID, kind: reqRecv, c: c, src: src, tag: tag, rsel: s}
	p.eng.recvQ = append(p.eng.recvQ, r)
	peer := -1
	if s.src != AnySource {
		peer = s.src
	}
	p.emitReqPost(trace.KindIrecv, r.id, peer, tag, s.ctx, 0)
	p.progress()
	return r
}

// recvViaEngine is the blocking receive for the case where a pending
// Irecv overlaps the selector: an unnumbered request joins the back of
// the posting-order queue so the earlier Irecv keeps its priority, then
// waits like any other receive. The trace sees a plain recv event.
func (c *Comm) recvViaEngine(s recvSel, anySrc bool) ([]byte, Status) {
	p := c.p
	t0 := p.clock.Now()
	src := AnySource
	if !anySrc {
		src = c.s.rankOf(s.src)
	}
	r := &Request{kind: reqRecv, c: c, src: src, rsel: s}
	p.eng.recvQ = append(p.eng.recvQ, r)
	r.waitMatch()
	p.lastRecvAnySrc = anySrc
	return c.consume(r.env, t0)
}

// waitMatch blocks until the engine has matched an envelope to this
// receive request. Each round snapshots the mailbox's enqueue counter
// before running progress, so an arrival racing the match attempt wakes
// the sleep immediately; failure of the awaited sender (or revocation)
// aborts by panic exactly as a blocking receive does — and then the request
// must not linger in the queue claiming messages: resilient callers recover
// from such panics and keep receiving.
func (r *Request) waitMatch() {
	p := r.c.p
	defer func() {
		if r.env == nil {
			p.engDropRecv(r)
		}
	}()
	giveUp := r.c.failWatch(r.src)
	if rec := p.world.rec; rec != nil {
		peer := -1
		if r.rsel.src != AnySource {
			peer = r.rsel.src
		}
		rec.PendingBegin(p.rank, trace.PendingOp{
			Kind: "recv", Peer: peer, Tag: r.rsel.tag, Ctx: r.rsel.ctx,
			AnySrc: r.rsel.src == AnySource, Since: float64(p.clock.Now()),
		})
		defer rec.PendingEnd(p.rank)
	}
	for r.env == nil {
		seen := p.mbox.seqSnapshot()
		p.progress()
		if r.env != nil {
			return
		}
		p.mbox.awaitArrival(seen, giveUp)
	}
}

// Wait blocks until the request completes and returns the received
// payload and status (both zero for send requests). Completion timing is
// deterministic: a send absorbs the interface's finish time, a receive
// consumes its envelope at the Wait entry (absorbing the arrival).
func (r *Request) Wait() ([]byte, Status) {
	if r.done {
		return r.data, r.status
	}
	p := r.c.p
	t0 := p.clock.Now()
	switch r.kind {
	case reqSend:
		p.progress()
		p.clock.AbsorbAtLeast(r.sendEnd)
	case reqRecv:
		r.waitMatch()
		p.lastRecvAnySrc = r.src == AnySource
		r.data, r.status = r.c.consume(r.env, t0)
		r.env = nil
	}
	r.done = true
	if r.id != 0 {
		p.emitReqDone(trace.KindWait, r.id, t0, 0)
	}
	return r.data, r.status
}

// Test reports whether the request has completed, completing it if it can
// complete at the current virtual time without blocking. Test is the one
// wall-sensitive operation of the API: whether a message has been
// delivered when Test polls depends on host scheduling, exactly as
// MPI_Test's outcome depends on real arrival order. Programs that need
// bit-reproducible virtual clocks should complete with Wait.
func (r *Request) Test() (bool, []byte, Status) {
	if r.done {
		return true, r.data, r.status
	}
	p := r.c.p
	p.progress()
	now := p.clock.Now()
	switch r.kind {
	case reqSend:
		if now < r.sendEnd {
			return false, nil, Status{}
		}
	case reqRecv:
		if r.env == nil {
			return false, nil, Status{}
		}
		p.engDropRecv(r)
		p.lastRecvAnySrc = r.src == AnySource
		r.data, r.status = r.c.consume(r.env, now)
		r.env = nil
	}
	r.done = true
	if r.id != 0 {
		p.emitReqDone(trace.KindTest, r.id, p.clock.Now(), 1)
	}
	return true, r.data, r.status
}

// engDropRecv removes a matched receive request from the pending queue if
// it is still there (progress removes matched requests itself; Test may
// complete one progress already pulled out).
func (p *Proc) engDropRecv(r *Request) {
	for i, q := range p.eng.recvQ {
		if q == r {
			p.eng.recvQ = append(p.eng.recvQ[:i], p.eng.recvQ[i+1:]...)
			return
		}
	}
}

// WaitAll completes all requests in order, returning payloads in request
// order (MPI_Waitall).
func WaitAll(reqs []*Request) [][]byte {
	out := make([][]byte, len(reqs))
	for i, r := range reqs {
		out[i], _ = r.Wait()
	}
	return out
}

// WaitAny completes one of the requests — preferring one that is already
// completable without blocking — and returns its index, payload and
// status (MPI_Waitany). With no completable request it blocks until some
// message arrives and polls again. Panics on an empty or fully-completed
// slice. Like Test, which request WaitAny picks can depend on real
// arrival order.
func WaitAny(reqs []*Request) (int, []byte, Status) {
	if len(reqs) == 0 {
		panic("mpi: WaitAny with no requests")
	}
	for {
		pending := -1
		for i, r := range reqs {
			if r.done {
				continue
			}
			if pending < 0 {
				pending = i
			}
			if ok, data, st := r.Test(); ok {
				return i, data, st
			}
		}
		if pending < 0 {
			panic("mpi: WaitAny with all requests already completed")
		}
		r := reqs[pending]
		if r.kind != reqRecv {
			// A send that cannot complete yet only needs its finish time
			// absorbed; Wait resolves it deterministically.
			data, st := r.Wait()
			return pending, data, st
		}
		// Block until something arrives anywhere, then re-test everything:
		// the arrival may complete any of the pending receives.
		p := r.c.p
		seen := p.mbox.seqSnapshot()
		p.progress()
		if r.env == nil {
			p.mbox.awaitArrival(seen, waitAnyGiveUp(reqs))
		}
	}
}

// waitAnyGiveUp aggregates the failure watches of every pending receive:
// WaitAny aborts only when one of the receives it could complete can no
// longer complete.
func waitAnyGiveUp(reqs []*Request) func() error {
	var watches []func() error
	for _, r := range reqs {
		if !r.done && r.kind == reqRecv {
			watches = append(watches, r.c.failWatch(r.src))
		}
	}
	return func() error {
		for _, w := range watches {
			if err := w(); err != nil {
				return err
			}
		}
		return nil
	}
}
