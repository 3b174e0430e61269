package mpi

// A real network transport: the same message-passing library running its
// traffic over TCP sockets instead of in-process queues. Every process
// opens a loopback listener; a full mesh of connections carries
// length-prefixed binary frames. The virtual-time model is unchanged —
// timestamps travel inside the frames — so a program produces identical
// results and identical simulated times under either transport, which the
// tests assert. This demonstrates that nothing in the library depends on
// shared memory between processes; it is also the hook through which a
// future multi-machine deployment would run.
//
// Failure detection (fault-tolerance extension): a closed socket is
// re-dialled, and only silence is death. Every rank heartbeats on every
// connection; a rank silent beyond an adaptive threshold (hbTimeout) is
// declared failed even if its sockets are still open (a hung process),
// which wakes every blocked receiver. Silence towards every live peer is
// a crash; silence towards only some while others still hear the rank is
// a suspected partition, a FailurePartition-kind ProcessFailedError.
// Every frame, payload or heartbeat, is written by send: a failed write
// is retried over bounded re-dials with exponential backoff before the
// destination is declared dead, and every write carries a deadline so a
// wedged kernel buffer cannot block a sender forever.

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hnoc"
	"repro/internal/vclock"
)

// frameHeaderLen is the fixed portion of a wire frame:
// ctx, src, tag, seq (int64) + arrive (float64) + payload length (uint32).
const frameHeaderLen = 8*5 + 4

// heartbeatCtx is the reserved context id of heartbeat frames; it can
// never collide with a communicator context (allocContext hands out
// non-negative ids only).
const heartbeatCtx = math.MinInt64

// The failure-detection constants.
const (
	// hbInterval is the period of heartbeat frames on every connection.
	hbInterval = 50 * time.Millisecond
	// hbTimeout is the minimum silence after which a peer may be declared
	// dead. The threshold is adaptive, never below this value: each
	// receiver tracks the observed heartbeat interarrival (Jacobson-style
	// smoothed average and deviation) and tolerates silence up to
	// max(hbTimeout, srtt + 4*rttvar + 2*hbInterval), so a slow or
	// jittery-but-alive link raises its own threshold. Documented bound:
	// added per-heartbeat delay of at most hbTimeout - hbInterval never
	// yields a false-positive failure declaration, even before any
	// adaptation; sustained jitter beyond that is absorbed once observed.
	hbTimeout = 2 * time.Second
	// dialRetries bounds the re-dial attempts after a failed write before
	// the destination is declared dead.
	dialRetries = 3
	// dialBackoff is the delay before the first re-dial; it doubles after
	// every failed attempt.
	dialBackoff = 10 * time.Millisecond
	// writeTimeout is the deadline applied to every frame write.
	writeTimeout = 5 * time.Second
)

// pair is the state of one directed src->dst connection: the sender's
// socket and the receiver's view of the sender.
type pair struct {
	mu   sync.Mutex // serialises writers, re-dials and conn swaps
	conn net.Conn   // nil once closed; the next send re-dials
	// pump is held by the one pump feeding dst's lane from src (a lane
	// has one producer), so a re-dial's pump waits for the old one; the
	// receiver never takes it.
	pump sync.Mutex

	// lastSeen is the UnixNano time dst's pump last heard any frame from
	// src (heartbeat or payload).
	lastSeen atomic.Int64
	// avg and dev are Jacobson-style estimates (nanoseconds) of the frame
	// interarrival dst observes from src: avg += (sample-avg)/8, dev +=
	// (|sample-avg|-dev)/4. Zero avg means no sample yet. They feed the
	// adaptive silence threshold (silenceLimit).
	avg, dev atomic.Int64
	// mute suppresses src's heartbeats towards dst — a test hook
	// simulating a partition (muting every pair of a rank simulates a
	// hung process whose sockets stay open).
	mute atomic.Bool
}

// tcpTransport carries envelopes over a loopback TCP mesh.
type tcpTransport struct {
	world *World

	listeners []net.Listener
	pairs     []pair // pairs[src*n+dst]
	// hbDelay[src] adds an artificial wall-clock delay before each of
	// src's heartbeat rounds — a test hook simulating a slow link.
	hbDelay []atomic.Int64

	wg     sync.WaitGroup
	closed chan struct{}
	once   sync.Once
}

// NewWorldTCP creates a world whose messages travel over real TCP
// connections on the loopback interface. The returned close function must
// be called after Run to release the sockets.
func NewWorldTCP(cluster *hnoc.Cluster, placement []int) (*World, func() error, error) {
	w := NewWorld(cluster, placement)
	t, err := newTCPTransport(w)
	if err != nil {
		return nil, nil, err
	}
	return w, t.Close, nil
}

func newTCPTransport(w *World) (*tcpTransport, error) {
	n := w.Size()
	t := &tcpTransport{
		world:   w,
		pairs:   make([]pair, n*n),
		hbDelay: make([]atomic.Int64, n),
		closed:  make(chan struct{}),
	}
	now := time.Now().UnixNano()
	for i := range t.pairs {
		t.pairs[i].lastSeen.Store(now)
	}

	// One listener per rank.
	t.listeners = make([]net.Listener, n)
	for r := 0; r < n; r++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Close()
			return nil, fmt.Errorf("mpi: listen for rank %d: %w", r, err)
		}
		t.listeners[r] = ln
	}

	// Accept loops: each inbound connection self-identifies with its
	// source rank in the first 8 bytes, then streams frames destined for
	// the listener's rank. The loop keeps accepting after startup so a
	// sender can re-dial (reconnect after a transient failure).
	accepted := make(chan error, n)
	for r := 0; r < n; r++ {
		t.wg.Add(1)
		go t.acceptLoop(r, n, accepted)
	}

	// Dial the mesh.
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if dst == src {
				continue
			}
			conn, err := t.dial(src, dst)
			if err != nil {
				t.Close()
				return nil, fmt.Errorf("mpi: dial %d->%d: %w", src, dst, err)
			}
			t.pair(src, dst).conn = conn
		}
	}
	for r := 0; r < n; r++ {
		if err := <-accepted; err != nil {
			t.Close()
			return nil, err
		}
	}

	w.deliver = t.deliver
	// deliver serialises the payload into the frame before returning, so
	// sendCommon can skip its defensive copy for non-self wire sends.
	w.wireTransport = true
	// Failure injection closes the failed rank's sockets, so remote peers
	// observe the crash on the wire exactly as they would a real one.
	w.OnFail(t.onRankFailed)

	for r := 0; r < n; r++ {
		t.wg.Add(1)
		go t.heartbeat(r)
	}
	t.wg.Add(1)
	go t.monitor()
	return t, nil
}

// pair returns the state of the src->dst connection.
func (t *tcpTransport) pair(src, dst int) *pair {
	return &t.pairs[src*len(t.world.procs)+dst]
}

// acceptLoop accepts inbound connections for rank dst forever; the first
// n-1 peers complete the startup handshake.
func (t *tcpTransport) acceptLoop(dst, n int, accepted chan<- error) {
	defer t.wg.Done()
	reported := false
	report := func(err error) {
		if !reported {
			accepted <- err
			reported = true
		}
	}
	if n == 1 {
		report(nil)
	}
	for got := 0; ; {
		conn, err := t.listeners[dst].Accept()
		if err != nil {
			report(err)
			return // listener closed
		}
		var hdr [8]byte
		_, err = io.ReadFull(conn, hdr[:])
		src := int(int64(binary.LittleEndian.Uint64(hdr[:])))
		if err == nil && (src < 0 || src >= n) {
			err = fmt.Errorf("mpi: bad source rank %d on wire", src)
		}
		if err != nil {
			conn.Close()
			report(err)
			continue
		}
		t.wg.Add(1)
		go t.pump(dst, src, conn)
		if got++; got == n-1 {
			report(nil)
		}
	}
}

// dial opens and identifies one src->dst connection.
func (t *tcpTransport) dial(src, dst int) (net.Conn, error) {
	conn, err := net.Dial("tcp", t.listeners[dst].Addr().String())
	if err != nil {
		return nil, err
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(int64(src)))
	conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	if _, err := conn.Write(hdr[:]); err != nil {
		conn.Close()
		return nil, err
	}
	conn.SetWriteDeadline(time.Time{})
	return conn, nil
}

// frameInto encodes an envelope for the wire into buf, which must be
// frameHeaderLen+len(e.data) bytes long.
func frameInto(buf []byte, e *envelope) {
	binary.LittleEndian.PutUint64(buf[0:], uint64(e.ctx))
	binary.LittleEndian.PutUint64(buf[8:], uint64(int64(e.src)))
	binary.LittleEndian.PutUint64(buf[16:], uint64(int64(e.tag)))
	binary.LittleEndian.PutUint64(buf[24:], uint64(e.seq))
	binary.LittleEndian.PutUint64(buf[32:], math.Float64bits(float64(e.arrive)))
	binary.LittleEndian.PutUint32(buf[40:], uint32(len(e.data)))
	copy(buf[frameHeaderLen:], e.data)
}

// send writes one frame on the src->dst connection: every frame, payload
// or heartbeat, takes this path. A failed write is retried on a re-dialled
// connection up to dialRetries times with exponential backoff, all under
// the pair's mutex, so one writer re-dials a pair at a time and its
// connections follow one another. A destination still unreachable after
// every retry is dead: it is marked failed (unless the transport is
// closing) so blocked receivers abort instead of hanging, and the frame
// disappears, exactly like the in-process path's delivery to a closed
// mailbox. send reports whether the frame went out.
func (t *tcpTransport) send(src, dst int, buf []byte) bool {
	p := t.pair(src, dst)
	p.mu.Lock()
	ok := p.write(buf)
	backoff := dialBackoff
	for attempt := 0; !ok && attempt < dialRetries; attempt++ {
		if !t.wait(backoff) || t.world.IsFailed(dst) {
			break
		}
		backoff *= 2
		conn, err := t.dial(src, dst)
		if err != nil {
			continue
		}
		if p.conn != nil {
			p.conn.Close()
		}
		p.conn = conn
		ok = p.write(buf)
	}
	// Unlocked before Fail: its hooks close this pair.
	p.mu.Unlock()
	if !ok {
		select {
		case <-t.closed:
		default:
			t.world.Fail(dst)
		}
	}
	return ok
}

// write sends buf on the pair's connection under the write deadline and
// reports whether it went out; the caller holds mu.
func (p *pair) write(buf []byte) bool {
	if p.conn == nil {
		return false
	}
	p.conn.SetWriteDeadline(time.Now().Add(writeTimeout))
	_, err := p.conn.Write(buf)
	return err == nil
}

// wait sleeps for d and reports false if the transport closed first.
func (t *tcpTransport) wait(d time.Duration) bool {
	select {
	case <-t.closed:
		return false
	case <-time.After(d):
		return true
	}
}

// deliver frames the envelope onto the src->dst connection, counted a
// runner (deadlock.go) until the pump puts it or its write fails.
func (t *tcpTransport) deliver(dst int, e envelope) {
	if e.src == dst {
		// Self-delivery has no wire.
		t.world.procs[dst].mbox.put(&e)
		return
	}
	if t.world.IsFailed(dst) {
		e.release()
		return // message to a failed process disappears
	}
	// The frame captures the payload, so the envelope (and, for
	// sendCommon's copy elision, the sender's buffer) is done with as soon
	// as the frame is built; the pooled frame buffer outlives the write.
	pb := getBuf(frameHeaderLen + len(e.data))
	defer pb.release()
	frameInto(pb.b, &e)
	src := e.src
	e.release()
	t.world.live.Add(1 << 32)
	if !t.send(src, dst, pb.b) {
		t.world.depart()
	}
}

// pump decodes frames from one connection into the destination's lane
// from src. An end of stream is never a verdict: the pump returns, the
// sender re-dials, and the silence monitor decides whether the peer is
// dead.
func (t *tcpTransport) pump(dst, src int, conn net.Conn) {
	defer t.wg.Done()
	defer conn.Close()
	p := t.pair(src, dst)
	p.pump.Lock()
	defer p.pump.Unlock()
	hdr := make([]byte, frameHeaderLen)
	for {
		if _, err := io.ReadFull(conn, hdr); err != nil {
			return
		}
		p.observe(time.Now().UnixNano())
		ctx := int64(binary.LittleEndian.Uint64(hdr[0:]))
		size := binary.LittleEndian.Uint32(hdr[40:])
		if ctx == heartbeatCtx {
			continue
		}
		e := envelope{
			ctx:    ctx,
			src:    int(int64(binary.LittleEndian.Uint64(hdr[8:]))),
			tag:    int(int64(binary.LittleEndian.Uint64(hdr[16:]))),
			seq:    int64(binary.LittleEndian.Uint64(hdr[24:])),
			arrive: vclock.Time(math.Float64frombits(binary.LittleEndian.Uint64(hdr[32:]))),
		}
		if size > 0 {
			// Pool-backed payload: the consumption helpers copy-on-retain,
			// so recycling the buffer after the receive is safe.
			pb := getBuf(int(size))
			if _, err := io.ReadFull(conn, pb.b); err != nil {
				pb.release()
				return
			}
			e.data, e.pbuf = pb.b, pb
		}
		if e.src != src {
			e.release()
			return // protocol violation; drop the connection
		}
		t.world.procs[dst].mbox.put(&e)
		t.world.depart()
	}
}

// observe records that the pair's receiver heard from its sender at wall
// time now (UnixNano) and folds the interarrival sample into the Jacobson
// estimators behind the adaptive silence threshold. Updates are
// load/store (not CAS): one pump per pair runs at a time.
func (p *pair) observe(now int64) {
	prev := p.lastSeen.Swap(now)
	sample := now - prev
	if sample <= 0 {
		return
	}
	avg := p.avg.Load()
	if avg == 0 {
		p.avg.Store(sample)
		p.dev.Store(sample / 2)
		return
	}
	diff := sample - avg
	p.avg.Store(avg + diff/8)
	if diff < 0 {
		diff = -diff
	}
	dev := p.dev.Load()
	p.dev.Store(dev + (diff-dev)/4)
}

// silenceLimit returns the silence (nanoseconds) beyond which the
// receiver's view of the sender counts as failure evidence: the timeout
// floor, raised by the observed interarrival statistics so a link that is
// merely slow or jittery does not read as dead.
func (p *pair) silenceLimit() int64 {
	base := hbTimeout.Nanoseconds()
	avg := p.avg.Load()
	if avg == 0 {
		return base
	}
	return max(base, avg+4*p.dev.Load()+2*hbInterval.Nanoseconds())
}

// heartbeat emits heartbeat frames from rank src to every peer until the
// transport closes or src dies.
func (t *tcpTransport) heartbeat(src int) {
	defer t.wg.Done()
	n := len(t.world.procs)
	buf := make([]byte, frameHeaderLen)
	frameInto(buf, &envelope{ctx: heartbeatCtx, src: src})
	ticker := time.NewTicker(hbInterval)
	defer ticker.Stop()
	for {
		select {
		case <-t.closed:
			return
		case <-ticker.C:
		}
		if t.world.IsFailed(src) {
			return // corpses do not heartbeat
		}
		if d := t.hbDelay[src].Load(); d > 0 && !t.wait(time.Duration(d)) {
			return
		}
		for dst := 0; dst < n; dst++ {
			if dst == src || t.world.IsFailed(dst) || t.pair(src, dst).mute.Load() {
				continue
			}
			t.send(src, dst, buf)
		}
	}
}

// monitor watches every rank's silence towards its live peers against the
// adaptive per-pair threshold and disambiguates the verdict: a rank silent
// beyond the limit for ALL live peers is dead (crash — nobody can reach
// it), while a rank silent for some peers but demonstrably alive for
// others is partitioned, declared with FailPartitioned so the error
// surfaced to blocked operations carries FailurePartition instead of
// FailureCrash.
func (t *tcpTransport) monitor() {
	defer t.wg.Done()
	n := len(t.world.procs)
	ticker := time.NewTicker(hbInterval)
	defer ticker.Stop()
	for {
		select {
		case <-t.closed:
			return
		case <-ticker.C:
		}
		now := time.Now().UnixNano()
		for src := 0; src < n; src++ {
			if t.world.IsFailed(src) {
				continue
			}
			observers, silent := 0, 0
			for dst := 0; dst < n; dst++ {
				if dst == src || t.world.IsFailed(dst) {
					continue
				}
				observers++
				if p := t.pair(src, dst); now-p.lastSeen.Load() > p.silenceLimit() {
					silent++
				}
			}
			if observers == 0 || silent == 0 {
				continue
			}
			if silent == observers {
				t.world.Fail(src)
			} else {
				t.world.FailPartitioned(src)
			}
		}
	}
}

// onRankFailed tears down the failed rank's sockets so its peers observe
// the crash on the wire.
func (t *tcpTransport) onRankFailed(rank int) {
	t.listeners[rank].Close()
	for other := range t.world.procs {
		t.pair(rank, other).close()
		t.pair(other, rank).close()
	}
}

// close closes the pair's connection, if any.
func (p *pair) close() {
	p.mu.Lock()
	conn := p.conn
	p.conn = nil
	p.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

// Close tears the mesh down.
func (t *tcpTransport) Close() error {
	t.once.Do(func() {
		close(t.closed)
		for _, ln := range t.listeners {
			if ln != nil {
				ln.Close()
			}
		}
		for i := range t.pairs {
			t.pairs[i].close()
		}
	})
	t.wg.Wait()
	return nil
}
