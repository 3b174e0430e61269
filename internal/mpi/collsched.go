package mpi

// The schedule IR of the collective layer. Every collective algorithm is
// one builder: a function of (rank, size, root, payload sizes, machine
// groups) that appends point-to-point steps to a plan. Nothing else
// describes an algorithm. Two consumers read the step list:
//
//   - the blocking executor (collexec.go) issues, per step, the blocking
//     primitive of p2p.go — Send, SendOwned, Isend…Wait, a failure-aware
//     receive — so a blocking collective's clocks and trace are those of
//     the equivalent hand-written loop;
//   - the replay (collreplay.go) walks the lists of all ranks with link
//     costs only — no goroutines, no payloads — which prices a collective
//     for the estimator and proves the lists match send for receive.
//
// A builder is pure when the payload sizes are known. On a live non-root
// rank they sometimes are not (only a broadcast's root knows the length);
// the builder then ends the list with a local step that reads the header
// the preceding steps delivered and appends the rest.

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/vclock"
)

type stepKind uint8

const (
	stSend       stepKind = iota // blocking send of a copy of the payload
	stSendOwned                  // blocking send, payload ceded to the receiver
	stPost                       // Isend; the next stWaitSends completes it
	stWaitSends                  // complete the posted send
	stRecv                       // receive; the payload replaces the slot
	stRecvInto                   // receive into buf[lo:hi]
	stRecvReduce                 // receive and fold into buf[lo:hi] with the op
	stRecvAppend                 // receive and append to buf (a bundle grows)
	stRecvFrame                  // receive and append to buf as a (peer, payload) bundle entry
	stDrain                      // take the next idx receives' messages as they arrive; the steps still apply them in list order
	stBegin                      // open collective event idx
	stEnd                        // emit collective event idx
	stLocal                      // run fn: local data movement, or a continuation
)

func (k stepKind) isSend() bool { return k <= stPost }
func (k stepKind) isRecv() bool { return k >= stRecv && k <= stRecvFrame }

// slot names the buffer a step's payload lives in.
type slot uint8

const (
	inBuf     slot = iota // buf[lo:hi]; hi < 0 means all of it
	inAux                 // the auxiliary buffer: headers, scan prefixes
	inPart                // in[idx], a block supplied by the caller
	inBlock               // blocks[idx], a block of the result
	inEntries             // entries lo..hi-1 of the bundle in buf
)

// tierID names the communicator a step travels on: the one the collective
// was called on, or one of its two hierarchy tiers (hier.go).
type tierID uint8

const (
	tierSelf tierID = iota
	tierNode
	tierNet
)

// span selects a step's payload. n is its size in bytes when the builder
// knows it; only the replay reads n — the executor sends what the slot
// holds.
type span struct {
	slot   slot
	idx    int
	lo, hi int
	n      int
}

func whole(n int) span           { return span{hi: -1, n: n} }
func part(lo, hi int) span       { return span{lo: lo, hi: hi, n: hi - lo} }
func aux(n int) span             { return span{slot: inAux, n: n} }
func userPart(i, n int) span     { return span{slot: inPart, idx: i, n: n} }
func blockSlot(i, n int) span    { return span{slot: inBlock, idx: i, n: n} }
func entries(lo, hi, n int) span { return span{slot: inEntries, lo: lo, hi: hi, n: n} }

type step struct {
	kind stepKind
	tier tierID
	// pooled marks an stSend or stPost whose matching receive is not an
	// stRecv: it consumes the payload in place, so the copy the send makes
	// is a pooled one. The replay holds every mark to its receive.
	pooled bool
	peer   int // rank in the communicator the collective was called on
	tag    int
	span
	fn func(x *collRun) // stLocal only
}

// mode is how a send step's payload travels (see payloadMode).
func (s *step) mode() payloadMode {
	switch {
	case s.kind == stSendOwned:
		return payCeded
	case s.pooled:
		return payPooled
	}
	return payCopy
}

// collEvent is one KindColl trace event of a plan: the collective itself
// and every public collective it nests.
type collEvent struct {
	name  string
	alg   int64
	bytes int // payload volume; < 0 means len(buf) when the event closes
	t0    vclock.Time
	w0    int64
}

// view is the set of ranks one algorithm instance runs over: the whole
// communicator, the ranks of one machine, or the machine leaders.
type view struct {
	tier  tierID
	ranks []int // members, as ranks of the calling communicator; nil: 0..size-1
	size  int
	me    int // the calling rank's index in the view, -1 when it is not a member
}

func (v view) rank(i int) int {
	if v.ranks == nil {
		return i
	}
	return v.ranks[i]
}

// kidList is the children of one rank in a binomial tree, smallest
// subtree first: at most one per bit of the rank space, so it lives on
// the stack.
type kidList struct {
	n  int
	at [32]int
}

// tree places index me in the binomial tree over the view rooted at index
// root: its parent (-1 at the root) and its children, as kids.at[:kids.n].
// Child vr+m (in root-relative numbering) heads the subtree [vr+m, vr+2m).
// Every tree-shaped algorithm walks this one function.
func (v view) tree(root int) (parent int, kids kidList) {
	n := v.size
	vr := (v.me - root + n) % n
	parent = -1
	mask := 1
	for ; mask < n; mask <<= 1 {
		if vr&mask != 0 {
			parent = (vr&^mask + root) % n
			break
		}
	}
	for m := 1; m < mask && vr+m < n; m <<= 1 {
		kids.at[kids.n] = (vr + m + root) % n
		kids.n++
	}
	return parent, kids
}

// subtree returns the root-relative range [lo, hi) of the binomial subtree
// headed by index kid, a child of index me.
func (v view) subtree(root, kid int) (lo, hi int) {
	lo = (kid - root + v.size) % v.size
	return lo, min(lo+lo-(v.me-root+v.size)%v.size, v.size)
}

// reach returns the root-relative range of index me's own subtree, given
// its children.
func (v view) reach(root int, kids *kidList) (lo, hi int) {
	lo = (v.me - root + v.size) % v.size
	hi = lo + 1
	if kids.n > 0 {
		_, hi = v.subtree(root, kids.at[kids.n-1])
	}
	return lo, hi
}

// plan is a schedule under construction: the steps of one rank.
type plan struct {
	steps  []step
	events []collEvent
	t      *CollTuning
	rank   int // the calling rank
	n      int // size of the communicator the collective was called on
	// The machine groups of the communicator: derived on demand from comm
	// on a live rank (a policy that never asks for a hierarchical
	// algorithm pays nothing for them), given up front to the replay.
	comm  *Comm
	tiers *tiers
	mine  int   // the calling rank's payload size
	sizes []int // every rank's payload size, for the collectives whose sizes may differ; nil when this rank does not know them
}

func (p *plan) self() view { return view{size: p.n, me: p.rank} }

// machines returns the communicator's machine groups when it has a
// two-level structure, nil otherwise.
func (p *plan) machines() *tiers {
	if p.comm == nil {
		return p.tiers
	}
	if !p.comm.hierViable() {
		return nil
	}
	return p.comm.hier().tiers
}

// twoLevel implements structure for the whole communicator.
func (p *plan) twoLevel() bool { return p.machines() != nil }

// viable is the structure of view v, for the resolutions. Only the whole
// communicator can have two levels: a node tier sits on one machine and a
// net tier has one member per machine, which ends the recursion.
func (p *plan) viable(v view) structure {
	if v.tier == tierSelf {
		return p
	}
	return flat{}
}

func (p *plan) msg(kind stepKind, v view, tag, peer int, sp span) *step {
	p.steps = append(p.steps, step{kind: kind, tier: v.tier, peer: v.rank(peer), tag: tag, span: sp})
	return &p.steps[len(p.steps)-1]
}

func (p *plan) waitSends() { p.steps = append(p.steps, step{kind: stWaitSends}) }

func (p *plan) local(fn func(x *collRun)) {
	p.steps = append(p.steps, step{kind: stLocal, fn: fn})
}

// sendrecv is the combined exchange: post the send, receive, complete.
func (p *plan) sendrecv(v view, tag, to int, out span, recv stepKind, from int, in span) {
	p.msg(stPost, v, tag, to, out).pooled = recv != stRecv
	p.msg(recv, v, tag, from, in)
	p.waitSends()
}

func (p *plan) begin(v view) int {
	p.events = append(p.events, collEvent{})
	id := len(p.events) - 1
	p.steps = append(p.steps, step{kind: stBegin, tier: v.tier, span: span{idx: id}})
	return id
}

func (p *plan) end(id int, v view, name string, alg int64, bytes int) {
	e := &p.events[id]
	e.name, e.alg, e.bytes = name, alg, bytes
	p.steps = append(p.steps, step{kind: stEnd, tier: v.tier, span: span{idx: id}})
}

// size is rank's payload size; a rank that knows only its own assumes the
// others agree (the replay, the one reader of other ranks' sizes, always
// knows them all).
func (p *plan) size(rank int) int {
	if p.sizes == nil {
		return p.mine
	}
	return p.sizes[rank]
}

// --- Barrier --------------------------------------------------------------

// barrier is the dissemination algorithm: ceil(log2 n) rounds of pairwise
// exchange of empty messages.
func (p *plan) barrier(v view) {
	for k := 1; k < v.size; k *= 2 {
		p.sendrecv(v, tagBarrier, (v.me+k)%v.size, part(0, 0), stRecvInto, (v.me-k+v.size)%v.size, part(0, 0))
	}
}

// --- Bcast ----------------------------------------------------------------

// header sends the n-byte hdr (the root's; nil elsewhere) down the
// binomial tree in the auxiliary buffer. Only the root of a broadcast or
// scatter knows the payload sizes, so a size-aware choice costs this one
// small message per tree edge.
func (p *plan) header(v view, root, tag int, hdr []byte, n int) {
	parent, kids := v.tree(root)
	if parent < 0 {
		p.local(func(x *collRun) { x.aux = hdr })
	} else {
		p.msg(stRecv, v, tag, parent, aux(n))
	}
	for i := kids.n - 1; i >= 0; i-- {
		p.msg(stSend, v, tag, kids.at[i], aux(n))
	}
}

// bcast broadcasts length bytes from index root over the view. length < 0
// means this (non-root) rank does not know it: when the lists depend on it
// (bcastSized) the rest of the list is then built from the header.
func (p *plan) bcast(v view, root, length int) {
	if v.size == 1 || v.me < 0 {
		return
	}
	ev := p.begin(v)
	if !p.t.bcastSized(p.viable(v)) {
		p.bcastBody(ev, v, root, BcastBinomial, length)
		return
	}
	if length < 0 {
		p.header(v, root, tagBcastHdr, nil, 9)
		p.local(func(x *collRun) {
			p.bcastBody(ev, v, root, BcastAlg(x.aux[0]), int(binary.LittleEndian.Uint64(x.aux[1:])))
		})
		return
	}
	alg := p.t.resolveBcast(length, p.viable(v))
	hdr := make([]byte, 9)
	hdr[0] = byte(alg)
	binary.LittleEndian.PutUint64(hdr[1:], uint64(length))
	p.header(v, root, tagBcastHdr, hdr, 9)
	p.bcastBody(ev, v, root, alg, length)
}

// bcastBody moves the payload with the resolved algorithm and closes the
// broadcast's event.
func (p *plan) bcastBody(ev int, v view, root int, alg BcastAlg, length int) {
	parent, kids := v.tree(root)
	switch alg {
	case BcastHier:
		// The root hands the payload to its machine leader (one fast hop,
		// skipped when it is the leader), the leaders broadcast over the
		// net tier, each leader fans out over its node tier.
		m := p.machines()
		rg := m.groupOf[root]
		if leader := m.groups[rg][0]; root != leader {
			switch p.rank {
			case root:
				p.msg(stSend, v, tagHier, leader, whole(length))
			case leader:
				p.msg(stRecv, v, tagHier, root, whole(length))
			}
		}
		p.bcast(m.net(p.rank), rg, length)
		p.bcast(m.node(p.rank), 0, length)
	case BcastSegmented:
		// Pipelined: an interior rank forwards segment k while its parent
		// still transmits segment k+1, so the tree's depth costs one
		// segment, not one payload, per level.
		if parent >= 0 {
			p.local(func(x *collRun) { x.buf = make([]byte, length) })
		}
		for lo := 0; lo < length; lo += segSize {
			hi := min(lo+segSize, length)
			if parent >= 0 {
				p.msg(stRecvInto, v, tagBcast, parent, part(lo, hi))
			}
			for i := kids.n - 1; i >= 0; i-- {
				p.msg(stSend, v, tagBcast, kids.at[i], part(lo, hi)).pooled = true
			}
		}
	default:
		alg = BcastBinomial
		if parent >= 0 {
			p.msg(stRecv, v, tagBcast, parent, whole(length))
		}
		for i := kids.n - 1; i >= 0; i-- {
			p.msg(stSend, v, tagBcast, kids.at[i], whole(length))
		}
	}
	p.end(ev, v, bcastAlgNames[alg], int64(alg), -1)
}

// --- Reduce / Allreduce ---------------------------------------------------

// reduce folds nbytes up the binomial tree towards index root.
func (p *plan) reduce(v view, root, nbytes int) {
	if v.me < 0 {
		return
	}
	parent, kids := v.tree(root)
	for _, k := range kids.at[:kids.n] {
		p.msg(stRecvReduce, v, tagReduce, k, whole(nbytes))
	}
	if parent >= 0 {
		p.msg(stSend, v, tagReduce, parent, whole(nbytes)).pooled = true
	}
}

func (p *plan) allreduce(v view, nbytes int) {
	if v.me < 0 {
		return
	}
	ev := p.begin(v)
	alg := p.t.resolveAllreduce(v.size, nbytes, p.viable(v))
	if alg != AllreduceRecursiveDoubling && alg != AllreduceRing && alg != AllreduceHier {
		alg = AllreduceRedBcast
	}
	if v.size > 1 {
		switch alg {
		case AllreduceRecursiveDoubling:
			p.allreduceRecDbl(v, nbytes)
		case AllreduceRing:
			p.allreduceRing(v, nbytes)
		case AllreduceHier:
			// Reduce to each machine's leader over the node tier, Allreduce
			// among the leaders (the net tier resolves its own flat
			// algorithm), broadcast back over the node tier: the payload
			// crosses the slow network only in the leaders' round.
			m := p.machines()
			p.reduce(m.node(p.rank), 0, nbytes)
			p.allreduce(m.net(p.rank), nbytes)
			p.bcast(m.node(p.rank), 0, nbytes)
		default:
			p.reduce(v, 0, nbytes)
			p.bcast(v, 0, nbytes)
		}
	}
	p.end(ev, v, allreduceAlgNames[alg], int64(alg), nbytes)
}

// allreduceRecDbl: non-power-of-two remainders first fold into a
// neighbour, the surviving power-of-two set exchanges full vectors along
// hypercube dimensions, and the folded ranks get the result back.
// log2(n) rounds of full-vector exchange: latency-optimal,
// bandwidth-hungry.
func (p *plan) allreduceRecDbl(v view, nbytes int) {
	me := v.me
	pof2 := 1
	for pof2*2 <= v.size {
		pof2 *= 2
	}
	rem := v.size - pof2
	newrank := me - rem
	if me < 2*rem {
		// The first 2*rem ranks fold pairwise: evens hand their vector to
		// the odd neighbour and sit out the doubling.
		if me%2 == 0 {
			p.msg(stSend, v, tagAllreduce, me+1, whole(nbytes)).pooled = true
			newrank = -1
		} else {
			p.msg(stRecvReduce, v, tagAllreduce, me-1, whole(nbytes))
			newrank = me / 2
		}
	}
	if newrank >= 0 {
		for mask := 1; mask < pof2; mask <<= 1 {
			partner := newrank ^ mask
			if partner < rem {
				partner = 2*partner + 1
			} else {
				partner += rem
			}
			p.sendrecv(v, tagAllreduce, partner, whole(nbytes), stRecvReduce, partner, whole(nbytes))
		}
	}
	if me < 2*rem {
		if me%2 == 0 {
			p.msg(stRecv, v, tagAllreduce, me+1, whole(nbytes))
		} else {
			p.msg(stSend, v, tagAllreduce, me-1, whole(nbytes))
		}
	}
}

// ringChunk returns the byte bounds of ring chunk i (mod n): the vector
// is cut into n near-equal runs of whole elements, so reduction operators
// never see a partial element.
func ringChunk(i, n, nbytes int) span {
	i = ((i % n) + n) % n
	elems := nbytes / elemSize
	return part(i*elems/n*elemSize, (i+1)*elems/n*elemSize)
}

// allreduceRing is the Rabenseifner-style ring: a reduce-scatter ring
// (n-1 steps, each rank folds one travelling chunk; afterwards it owns
// the fully reduced chunk me+1) followed by an allgather ring (n-1 steps
// circulating the reduced chunks). Each rank moves 2(n-1)/n of the vector
// — bandwidth-optimal — at the price of 2(n-1) message latencies.
func (p *plan) allreduceRing(v view, nbytes int) {
	n, me := v.size, v.me
	if nbytes%elemSize != 0 {
		panic(fmt.Sprintf("mpi: ring Allreduce needs a payload divisible by the %d-byte element size, got %d bytes", elemSize, nbytes))
	}
	right, left := (me+1)%n, (me-1+n)%n
	for s := 0; s < n-1; s++ {
		p.sendrecv(v, tagAllreduce, right, ringChunk(me-s, n, nbytes), stRecvReduce, left, ringChunk(me-s-1, n, nbytes))
	}
	for s := 0; s < n-1; s++ {
		p.sendrecv(v, tagAllreduce, right, ringChunk(me+1-s, n, nbytes), stRecvInto, left, ringChunk(me-s, n, nbytes))
	}
}

// --- Gather ---------------------------------------------------------------

// Bundles carry several (rank, payload) pairs in one message for the
// gather and scatter trees. Format: per entry a uint32 rank, a uint32
// length, then the bytes.
func bundleAppend(buf []byte, rank int, data []byte) []byte {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(rank))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(len(data)))
	buf = append(buf, hdr[:]...)
	return append(buf, data...)
}

// bundleEach calls fn for every entry of a bundle. The payload slice
// aliases buf.
func bundleEach(buf []byte, fn func(rank int, data []byte)) {
	for len(buf) > 0 {
		rank := int(binary.LittleEndian.Uint32(buf[0:]))
		size := int(binary.LittleEndian.Uint32(buf[4:]))
		fn(rank, buf[8:8+size])
		buf = buf[8+size:]
	}
}

// bundleRun returns entries lo..hi-1 of a bundle, headers included.
func bundleRun(buf []byte, lo, hi int) []byte {
	start, off := 0, 0
	for k := 0; k < hi; k++ {
		if k == lo {
			start = off
		}
		off += 8 + int(binary.LittleEndian.Uint32(buf[off+4:]))
	}
	return buf[start:off]
}

// The local steps of the gathers and scatters. They read everything from
// the run, so scheduling one allocates nothing.

// frameOwn turns the payload in buf into a bundle holding it.
func frameOwn(x *collRun) { x.buf = bundleAppend(nil, x.rank, x.buf) }

// unbundle unpacks the bundle a gather delivered to its root.
func unbundle(x *collRun) {
	x.blocks = make([][]byte, x.n)
	bundleEach(x.buf, func(r int, d []byte) { x.blocks[r] = append([]byte(nil), d...) })
}

// keepOwnBlock starts a gather root's result with its own payload.
func keepOwnBlock(x *collRun) {
	x.blocks = make([][]byte, x.n)
	x.blocks[x.rank] = append([]byte(nil), x.buf...)
}

// takeOwnPart makes buf a copy of the caller's part for this rank.
func takeOwnPart(x *collRun) { x.buf = append([]byte(nil), x.in[x.rank]...) }

// keepOwnEntry makes buf a copy of the payload of its bundle's first entry.
func keepOwnEntry(x *collRun) { x.buf = append([]byte(nil), bundleRun(x.buf, 0, 1)[8:]...) }

// bundled is the size of the bundle holding the payloads of view indices
// [lo, hi) in root-relative numbering.
func (p *plan) bundled(v view, root, lo, hi int) int {
	total := 0
	for u := lo; u < hi; u++ {
		total += 8 + p.size(v.rank((u+root)%v.size))
	}
	return total
}

// gather collects every member's payload (p.sizes, by rank) on index
// root. The root's result blocks are decoded from buf by Comm.Gather for
// the bundling algorithms.
func (p *plan) gather(v view, root int) {
	ev := p.begin(v)
	mine := p.size(p.rank)
	alg := GatherFlat
	if v.size > 1 {
		alg = p.t.resolveGather(mine, p.viable(v))
	}
	switch alg {
	case GatherHier:
		p.gatherHier(v, root)
		if v.me == root {
			p.local(unbundle)
		}
	case GatherBinomial:
		// Each interior rank bundles its subtree and sends one message up,
		// so the root absorbs log2(n) messages instead of n-1.
		p.local(frameOwn)
		parent, kids := v.tree(root)
		for _, k := range kids.at[:kids.n] {
			lo, hi := v.subtree(root, k)
			p.msg(stRecvAppend, v, tagGather, k, whole(p.bundled(v, root, lo, hi)))
		}
		if parent >= 0 {
			lo, hi := v.reach(root, &kids)
			p.msg(stSendOwned, v, tagGather, parent, whole(p.bundled(v, root, lo, hi)))
		} else {
			p.local(unbundle)
		}
	default:
		alg = GatherFlat
		if v.me == root {
			p.local(keepOwnBlock)
		}
		p.gatherFlat(v, root, stRecv, func(i int) span { return blockSlot(v.rank(i), p.size(v.rank(i))) }, whole(mine))
	}
	p.end(ev, v, gatherAlgNames[alg], int64(alg), mine)
}

// gatherFlat is the flat fan into index root: every other member sends
// out; the root receives from each with the given kind into the slot in(i)
// names. The root drains: it takes the messages in whatever order they
// arrive, so one slow member does not hold up (in host time) the ones
// queued behind it, and then applies them in index order — each receive is
// max-with-arrival plus a constant overhead, so simulated time does not
// depend on the arrival order.
func (p *plan) gatherFlat(v view, root int, kind stepKind, in func(i int) span, out span) {
	if v.me < 0 {
		return
	}
	if v.me != root {
		p.msg(stSend, v, tagGather, root, out).pooled = kind != stRecv
		return
	}
	if v.size > 1 {
		p.steps = append(p.steps, step{kind: stDrain, tier: v.tier, tag: tagGather, span: span{idx: v.size - 1}})
	}
	for i := 0; i < v.size; i++ {
		if i != root {
			p.msg(kind, v, tagGather, i, in(i))
		}
	}
}

// gatherHier: each machine's leader frames its members' payloads into one
// (rank, payload) bundle, the root machine's leader collects the bundles
// over the net tier, and a final intra-machine hop delivers the
// concatenation when the root is not its machine's leader. The root
// absorbs one bundle per machine instead of one message per rank.
func (p *plan) gatherHier(v view, root int) {
	m := p.machines()
	g, rg := m.groupOf[p.rank], m.groupOf[root]
	leader, rootLeader := m.groups[g][0], m.groups[rg][0]
	bundle := func(g int) int { // the framed payloads of machine g
		grp := m.groups[g]
		return p.bundled(view{ranks: grp, size: len(grp)}, 0, 0, len(grp))
	}
	if p.rank == leader {
		p.local(frameOwn)
	}
	node := m.node(p.rank)
	p.gatherFlat(node, 0, stRecvFrame, func(i int) span { return whole(p.size(node.rank(i))) }, whole(p.size(p.rank)))
	p.gatherFlat(m.net(p.rank), rg, stRecvAppend, func(i int) span { return whole(bundle(i)) }, whole(bundle(g)))
	if root != rootLeader {
		total := p.bundled(v, 0, 0, v.size)
		switch p.rank {
		case rootLeader:
			p.msg(stSendOwned, v, tagHier, root, whole(total))
		case root:
			p.msg(stRecv, v, tagHier, rootLeader, whole(total))
		}
	}
}

// --- Scatter --------------------------------------------------------------

// scatter distributes in[r] (sizes p.sizes, known at the root only) from
// index root; every rank's part ends up in buf. ScatterAuto on at least
// treeMinRanks members reads the largest part, so only the root resolves
// it and the others build the rest of their list from its header.
func (p *plan) scatter(v view, root int) {
	ev := p.begin(v)
	alg := p.t.Scatter
	if alg == ScatterAuto && v.size >= treeMinRanks {
		if p.sizes == nil {
			p.header(v, root, tagScatterHdr, nil, 1)
			p.local(func(x *collRun) { p.scatterBody(ev, v, root, ScatterAlg(x.aux[0])) })
			return
		}
		maxPart := 0
		for _, s := range p.sizes {
			maxPart = max(maxPart, s)
		}
		alg = p.t.resolveScatter(v.size, maxPart)
		p.header(v, root, tagScatterHdr, []byte{byte(alg)}, 1)
	}
	p.scatterBody(ev, v, root, alg)
}

func (p *plan) scatterBody(ev int, v view, root int, alg ScatterAlg) {
	parent, kids := v.tree(root)
	if alg != ScatterBinomial || v.size == 1 {
		if parent < 0 {
			for i := 0; i < v.size; i++ {
				if i != root {
					p.msg(stSend, v, tagScatter, i, userPart(v.rank(i), p.size(v.rank(i))))
				}
			}
			p.local(takeOwnPart)
		} else {
			p.msg(stRecv, v, tagScatter, root, whole(p.size(p.rank)))
		}
		p.end(ev, v, scatterAlgNames[ScatterFlat], int64(ScatterFlat), -1)
		return
	}
	// Bundles of parts travel down the binomial tree: a rank's bundle holds
	// its subtree's entries in tree order, own entry first, so each child's
	// share is one contiguous run of it (found by walking the bundle: only
	// the root knows the part sizes). The root serialises log2(n) transfers
	// instead of n-1.
	me, last := v.reach(root, &kids)
	if parent < 0 {
		p.local(func(x *collRun) {
			total := 8*v.size - len(x.in[x.rank]) // the root keeps its own part out of the bundle
			for _, part := range x.in {
				total += len(part)
			}
			x.buf = bundleAppend(make([]byte, 0, total), 0, nil)
			for u := 1; u < v.size; u++ {
				x.buf = bundleAppend(x.buf, u, x.in[v.rank((u+root)%v.size)])
			}
		})
	} else {
		p.msg(stRecv, v, tagScatter, parent, whole(p.bundled(v, root, me, last)))
	}
	for i := kids.n - 1; i >= 0; i-- {
		lo, hi := v.subtree(root, kids.at[i])
		p.msg(stSendOwned, v, tagScatter, kids.at[i], entries(lo-me, hi-me, p.bundled(v, root, lo, hi)))
	}
	if parent < 0 {
		p.local(takeOwnPart)
	} else {
		p.local(keepOwnEntry)
	}
	p.end(ev, v, scatterAlgNames[ScatterBinomial], int64(ScatterBinomial), -1)
}

// --- ReduceScatter --------------------------------------------------------

// reduceScatter combines everyone's in[r] (sizes p.sizes, agreed) and
// leaves the reduction of destination rank's block in buf.
func (p *plan) reduceScatter(v view) {
	n := v.size
	ev := p.begin(v)
	offs := make([]int, n+1)
	for r := 0; r < n; r++ {
		offs[r+1] = offs[r] + p.size(r)
	}
	alg := ReduceScatterViaRoot
	if n > 1 {
		// Every member must pass the same per-destination sizes. All
		// exchange their size vectors and run the same comparison, so a
		// mismatch panics on every rank with one message instead of one
		// rank tripping over a confusing length error while the others hang.
		p.local(func(x *collRun) {
			x.blocks = make([][]byte, n)
			x.blocks[p.rank] = make([]byte, 8*n)
			for r, part := range x.in {
				binary.LittleEndian.PutUint64(x.blocks[p.rank][8*r:], uint64(len(part)))
			}
		})
		p.allgather(v, 8*n)
		p.local(func(x *collRun) {
			for m := 1; m < n; m++ {
				for r := 0; r < n; r++ {
					got := int(binary.LittleEndian.Uint64(x.blocks[m][8*r:]))
					want := int(binary.LittleEndian.Uint64(x.blocks[0][8*r:]))
					if got != want {
						panic(fmt.Sprintf("mpi: ReduceScatter size mismatch: member %d passed %d bytes for destination %d but member 0 passed %d; per-destination sizes must agree across members", m, got, r, want))
					}
				}
			}
		})
		alg = p.t.resolveReduceScatter(offs[n], p.viable(v))
	}
	switch alg {
	case ReduceScatterHier:
		p.reduceScatterHier(v)
	case ReduceScatterPairwise:
		// At step s each rank sends its contribution for rank+s and folds
		// the one arriving from rank-s into its own block: no rank ever
		// holds more than one block, nothing concatenates through rank 0.
		p.local(takeOwnPart)
		for s := 1; s < n; s++ {
			dst := (v.me + s) % n
			p.sendrecv(v, tagReduceScatter, dst, userPart(dst, p.size(dst)), stRecvReduce, (v.me-s+n)%n, whole(p.size(p.rank)))
		}
	default:
		// Reduce the concatenation on rank 0, then scatter the slices.
		alg = ReduceScatterViaRoot
		p.local(func(x *collRun) { x.buf = slices.Concat(x.in...) })
		p.reduce(v, 0, offs[n])
		if p.rank == 0 {
			p.local(func(x *collRun) {
				x.in = make([][]byte, n)
				for r := range x.in {
					x.in[r] = x.buf[offs[r]:offs[r+1]]
				}
			})
		}
		p.scatter(v, 0)
	}
	p.end(ev, v, reduceScatterAlgNames[alg], int64(alg), -1)
}

// reduceScatterHier: each node tier reduces the whole vector onto its
// leader over the machine's bus, the leaders run the pairwise exchange
// over the net tier at machine-block granularity, and each leader hands
// its members their blocks. The vector is laid out machine by machine
// from the start (reduction is element-wise, so the order of blocks does
// not change a single sum), which makes every machine's block one range.
func (p *plan) reduceScatterHier(v view) {
	m := p.machines()
	start := make([]int, p.n)                // byte offset of each rank's block
	mOffs := make([]int, 1, len(m.groups)+1) // byte offset of each machine's block
	total := 0
	for _, grp := range m.groups {
		for _, r := range grp {
			start[r], total = total, total+p.size(r)
		}
		mOffs = append(mOffs, total)
	}
	block := func(r int) span { return part(start[r], start[r]+p.size(r)) }
	p.local(func(x *collRun) {
		x.buf = make([]byte, 0, total)
		for _, grp := range m.groups {
			for _, r := range grp {
				x.buf = append(x.buf, x.in[r]...)
			}
		}
	})
	node, net := m.node(p.rank), m.net(p.rank)
	p.reduce(node, 0, total)
	if g := net.me; g >= 0 {
		for s := 1; s < net.size; s++ {
			dst := (g + s) % net.size
			p.sendrecv(net, tagReduceScatter, dst, part(mOffs[dst], mOffs[dst+1]), stRecvReduce, (g-s+net.size)%net.size, part(mOffs[g], mOffs[g+1]))
		}
		for i := 1; i < node.size; i++ {
			p.msg(stSend, node, tagScatter, i, block(node.rank(i)))
		}
		own := block(p.rank)
		p.local(func(x *collRun) { x.buf = append([]byte(nil), x.buf[own.lo:own.hi]...) })
	} else {
		p.msg(stRecv, node, tagScatter, 0, whole(p.size(p.rank)))
	}
}

// --- Allgather / Alltoall / Scan ------------------------------------------

// allgather is the ring: n-1 steps, each member forwards the newest block
// to its right neighbour. blocks[rank] holds the own contribution.
func (p *plan) allgather(v view, nbytes int) {
	n := v.size
	for s, cur := 0, v.me; s < n-1; s++ {
		prev := (cur - 1 + n) % n
		p.sendrecv(v, tagAllgather, (v.me+1)%n, blockSlot(cur, nbytes), stRecv, (v.me-1+n)%n, blockSlot(prev, nbytes))
		cur = prev
	}
}

// alltoall is the pairwise exchange: at step s send in[rank+s], receive
// blocks[rank-s].
func (p *plan) alltoall(v view, nbytes int) {
	n := v.size
	for s := 1; s < n; s++ {
		dst, src := (v.me+s)%n, (v.me-s+n)%n
		p.sendrecv(v, tagAlltoall, dst, userPart(dst, nbytes), stRecv, src, blockSlot(src, nbytes))
	}
}

// scan is the linear chain of both prefix reductions: receive the prefix
// of the lower ranks into aux, fold the own contribution (buf) onto a
// copy of it, pass the result on. Scan returns buf, Exscan aux.
func (p *plan) scan(v view, nbytes int, exclusive bool) {
	if v.me > 0 {
		p.msg(stRecv, v, tagScan, v.me-1, aux(nbytes))
	}
	if v.me > 0 && (!exclusive || v.me < v.size-1) {
		p.local(func(x *collRun) {
			reduceLenCheck(x.what, len(x.aux), len(x.buf))
			acc := append([]byte(nil), x.aux...)
			x.op(acc, x.buf)
			x.buf = acc
		})
	}
	if v.me < v.size-1 {
		p.msg(stSend, v, tagScan, v.me+1, whole(nbytes))
	}
}
