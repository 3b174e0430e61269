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
// Failure detection (fault-tolerance extension): a peer whose socket
// closes unexpectedly is marked failed, which wakes every blocked receiver
// — the wire-level analogue of World.Fail. With heartbeats enabled, each
// rank additionally emits periodic heartbeat frames on every connection; a
// rank silent beyond an adaptive threshold — the configured timeout floor,
// raised by the observed interarrival average and deviation of that pair,
// so slow or jittery links do not read as dead (see
// tcpOptions.HeartbeatTimeout for the documented no-false-positive bound)
// — is declared failed even if its sockets are still open (a hung
// process). The verdict is disambiguated: silence towards every live peer
// is a crash, silence towards only some peers while others still hear the
// rank is a suspected partition, surfaced as a FailurePartition-kind
// ProcessFailedError. Writes that fail are retried over a bounded number
// of re-dials with exponential backoff before the destination is declared
// dead, and every write carries a deadline so a wedged kernel buffer
// cannot block a sender forever.

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

// tcpOptions tune the TCP transport's failure-detection machinery. The
// zero value disables heartbeats and reconnection: a closed socket then
// marks the peer failed immediately.
type tcpOptions struct {
	// HeartbeatInterval is the period of heartbeat frames on every
	// connection. Zero disables heartbeats.
	HeartbeatInterval time.Duration
	// HeartbeatTimeout is the minimum silence after which a peer may be
	// declared dead. With heartbeats enabled, a socket close alone is not
	// proof of death (the peer may be reconnecting); silence beyond the
	// detection threshold is. The threshold is adaptive, never below this
	// value: each receiver tracks the observed heartbeat interarrival
	// (Jacobson-style smoothed average and deviation) and tolerates
	// silence up to max(HeartbeatTimeout, srtt + 4*rttvar +
	// 2*HeartbeatInterval), so a slow or jittery-but-alive link raises
	// its own threshold instead of producing false positives. Documented
	// bound: added per-heartbeat delay of at most HeartbeatTimeout -
	// HeartbeatInterval never yields a false-positive failure
	// declaration, even before any adaptation; sustained jitter beyond
	// that is absorbed once it has been observed.
	HeartbeatTimeout time.Duration
	// DialRetries bounds the re-dial attempts after a failed write
	// before the destination is declared dead.
	DialRetries int
	// DialBackoff is the delay before the first re-dial; it doubles
	// after every failed attempt.
	DialBackoff time.Duration
	// WriteTimeout is the per-operation deadline applied to every frame
	// write. Zero means no deadline.
	WriteTimeout time.Duration
}

// defaultTCPOptions returns the failure-detection configuration used by
// NewWorldTCP: heartbeats every 50 ms with a 2 s silence threshold, three
// re-dial attempts starting at 10 ms backoff, and a 5 s write deadline.
func defaultTCPOptions() tcpOptions {
	return tcpOptions{
		HeartbeatInterval: 50 * time.Millisecond,
		HeartbeatTimeout:  2 * time.Second,
		DialRetries:       3,
		DialBackoff:       10 * time.Millisecond,
		WriteTimeout:      5 * time.Second,
	}
}

// tcpTransport carries envelopes over a loopback TCP mesh.
type tcpTransport struct {
	world *World
	opts  tcpOptions

	listeners []net.Listener
	connMu    []sync.Mutex // per (src,dst) pair: serialises writers and conn swaps
	conns     [][]net.Conn // conns[src][dst]

	// lastSeen[dst][src] is the UnixNano time dst's pump last heard any
	// frame from src (heartbeat or payload).
	lastSeen [][]atomic.Int64
	// hbAvg/hbDev[dst][src] are Jacobson-style estimates (nanoseconds) of
	// the frame interarrival dst observes from src: avg += (sample-avg)/8,
	// dev += (|sample-avg|-dev)/4. Zero avg means no sample yet. They feed
	// the adaptive silence threshold (silenceLimit).
	hbAvg [][]atomic.Int64
	hbDev [][]atomic.Int64
	// silenced[src] suppresses src's heartbeats — a test hook simulating
	// a hung process whose sockets stay open.
	silenced []atomic.Bool
	// hbDelay[src] adds an artificial wall-clock delay before each of
	// src's heartbeat rounds — a test hook simulating a slow link.
	hbDelay []atomic.Int64
	// hbMute[src*n+dst] suppresses src's heartbeats towards dst only — a
	// test hook simulating an asymmetric partition (src alive for some
	// peers, silent for others).
	hbMute []atomic.Bool

	wg     sync.WaitGroup
	closed chan struct{}
	once   sync.Once
}

// NewWorldTCP creates a world whose messages travel over real TCP
// connections on the loopback interface, with the default failure-detection
// options. The returned close function must be called after Run to release
// the sockets.
func NewWorldTCP(cluster *hnoc.Cluster, placement []int) (*World, func() error, error) {
	return newWorldTCPOpts(cluster, placement, defaultTCPOptions())
}

// newWorldTCPOpts is NewWorldTCP with explicit failure-detection options:
// the tests' seam (heartbeats off, sub-second timeouts).
func newWorldTCPOpts(cluster *hnoc.Cluster, placement []int, opts tcpOptions) (*World, func() error, error) {
	w := NewWorld(cluster, placement)
	t, err := newTCPTransport(w, opts)
	if err != nil {
		return nil, nil, err
	}
	return w, t.Close, nil
}

func newTCPTransport(w *World, opts tcpOptions) (*tcpTransport, error) {
	t := &tcpTransport{world: w, opts: opts, closed: make(chan struct{})}
	n := w.Size()

	t.lastSeen = make([][]atomic.Int64, n)
	for i := range t.lastSeen {
		t.lastSeen[i] = make([]atomic.Int64, n)
	}
	t.hbAvg = make([][]atomic.Int64, n)
	t.hbDev = make([][]atomic.Int64, n)
	for i := range t.hbAvg {
		t.hbAvg[i] = make([]atomic.Int64, n)
		t.hbDev[i] = make([]atomic.Int64, n)
	}
	t.silenced = make([]atomic.Bool, n)
	t.hbDelay = make([]atomic.Int64, n)
	t.hbMute = make([]atomic.Bool, n*n)
	now := time.Now().UnixNano()
	for dst := 0; dst < n; dst++ {
		for src := 0; src < n; src++ {
			t.lastSeen[dst][src].Store(now)
		}
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
	t.conns = make([][]net.Conn, n)
	t.connMu = make([]sync.Mutex, n*n)
	for src := 0; src < n; src++ {
		t.conns[src] = make([]net.Conn, n)
		for dst := 0; dst < n; dst++ {
			if dst == src {
				continue
			}
			conn, err := t.dial(src, dst)
			if err != nil {
				t.Close()
				return nil, fmt.Errorf("mpi: dial %d->%d: %w", src, dst, err)
			}
			t.conns[src][dst] = conn
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

	if opts.HeartbeatInterval > 0 {
		for r := 0; r < n; r++ {
			t.wg.Add(1)
			go t.heartbeat(r)
		}
		t.wg.Add(1)
		go t.monitor()
	}
	return t, nil
}

// acceptLoop accepts inbound connections for rank dst forever; the first
// n-1 peers complete the startup handshake.
func (t *tcpTransport) acceptLoop(dst, n int, accepted chan<- error) {
	defer t.wg.Done()
	need := n - 1
	reported := need == 0
	if reported {
		accepted <- nil
	}
	got := 0
	for {
		conn, err := t.listeners[dst].Accept()
		if err != nil {
			if !reported {
				accepted <- err
				reported = true
			}
			return // listener closed
		}
		var hdr [8]byte
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			conn.Close()
			if !reported {
				accepted <- err
				reported = true
			}
			continue
		}
		src := int(int64(binary.LittleEndian.Uint64(hdr[:])))
		if src < 0 || src >= n {
			conn.Close()
			if !reported {
				accepted <- fmt.Errorf("mpi: bad source rank %d on wire", src)
				reported = true
			}
			continue
		}
		t.wg.Add(1)
		go t.pump(dst, src, conn)
		got++
		if !reported && got == need {
			accepted <- nil
			reported = true
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
	if t.opts.WriteTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(t.opts.WriteTimeout))
	}
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

// frameBuf encodes an envelope into a pooled buffer; the caller releases
// it once the frame is written (or abandoned).
func frameBuf(e *envelope) *poolBuf {
	pb := getBuf(frameHeaderLen + len(e.data))
	frameInto(pb.b, e)
	return pb
}

// writeFrame sends one frame on the src->dst connection under the pair's
// mutex, applying the per-operation deadline.
func (t *tcpTransport) writeFrame(src, dst int, buf []byte) error {
	n := len(t.world.procs)
	mu := &t.connMu[src*n+dst]
	mu.Lock()
	defer mu.Unlock()
	conn := t.conns[src][dst]
	if conn == nil {
		return fmt.Errorf("mpi: no connection %d->%d", src, dst)
	}
	if t.opts.WriteTimeout > 0 {
		conn.SetWriteDeadline(time.Now().Add(t.opts.WriteTimeout))
	}
	_, err := conn.Write(buf)
	return err
}

// deliver frames the envelope onto the src->dst connection, re-dialling
// with exponential backoff on write failure before declaring the
// destination dead.
func (t *tcpTransport) deliver(dst int, e *envelope) {
	if e.src == dst {
		// Self-delivery has no wire.
		t.world.procs[dst].mbox.put(e)
		return
	}
	if t.world.IsFailed(dst) {
		releaseEnvelope(e)
		return // message to a failed process disappears
	}
	// The frame captures the payload, so the envelope (and, for
	// sendCommon's copy elision, the sender's buffer) is done with as soon
	// as the frame is built; the pooled frame buffer outlives the write.
	pb := frameBuf(e)
	defer pb.release()
	src := e.src
	releaseEnvelope(e)
	if t.writeFrame(src, dst, pb.b) == nil {
		return
	}
	if t.reconnect(src, dst, pb.b) {
		return
	}
	// The peer stayed unreachable through every retry: it is dead. Mark
	// it failed so blocked receivers abort instead of hanging; the
	// message disappears, exactly like the in-process path's delivery to
	// a closed mailbox.
	select {
	case <-t.closed:
	default:
		t.world.Fail(dst)
	}
}

// reconnect re-dials src->dst up to DialRetries times with exponential
// backoff, retrying the frame after each successful dial. It reports
// whether the frame was eventually written.
func (t *tcpTransport) reconnect(src, dst int, buf []byte) bool {
	backoff := t.opts.DialBackoff
	if backoff <= 0 {
		backoff = 10 * time.Millisecond
	}
	n := len(t.world.procs)
	mu := &t.connMu[src*n+dst]
	for attempt := 0; attempt < t.opts.DialRetries; attempt++ {
		select {
		case <-t.closed:
			return false
		case <-time.After(backoff):
		}
		backoff *= 2
		if t.world.IsFailed(dst) {
			return false
		}
		conn, err := t.dial(src, dst)
		if err != nil {
			continue
		}
		mu.Lock()
		if old := t.conns[src][dst]; old != nil {
			old.Close()
		}
		t.conns[src][dst] = conn
		mu.Unlock()
		if t.writeFrame(src, dst, buf) == nil {
			return true
		}
	}
	return false
}

// pump decodes frames from one connection into the destination mailbox.
// An unexpected end of stream is a failure signal: without heartbeats the
// peer is declared dead on the spot (a closed socket means the process is
// gone); with heartbeats the verdict is left to the silence monitor, which
// gives a reconnecting peer its grace period.
func (t *tcpTransport) pump(dst, src int, conn net.Conn) {
	defer t.wg.Done()
	defer conn.Close()
	hdr := make([]byte, frameHeaderLen)
	for {
		if _, err := io.ReadFull(conn, hdr); err != nil {
			t.peerGone(dst, src)
			return
		}
		ctx := int64(binary.LittleEndian.Uint64(hdr[0:]))
		size := binary.LittleEndian.Uint32(hdr[40:])
		if ctx == heartbeatCtx {
			t.observe(dst, src, time.Now().UnixNano())
			continue
		}
		e := getEnv()
		e.ctx = ctx
		e.src = int(int64(binary.LittleEndian.Uint64(hdr[8:])))
		e.tag = int(int64(binary.LittleEndian.Uint64(hdr[16:])))
		e.seq = int64(binary.LittleEndian.Uint64(hdr[24:]))
		e.arrive = vclock.Time(math.Float64frombits(binary.LittleEndian.Uint64(hdr[32:])))
		if size > 0 {
			// Pool-backed payload: the consumption helpers copy-on-retain,
			// so recycling the buffer after the receive is safe.
			pb := getBuf(int(size))
			if _, err := io.ReadFull(conn, pb.b); err != nil {
				pb.release()
				putEnv(e)
				t.peerGone(dst, src)
				return
			}
			e.data = pb.b
			e.pbuf = pb
		}
		if e.src != src {
			releaseEnvelope(e)
			return // protocol violation; drop the connection
		}
		t.observe(dst, src, time.Now().UnixNano())
		t.world.procs[dst].mbox.put(e)
	}
}

// observe records that dst heard from src at wall time now (UnixNano) and
// folds the interarrival sample into the Jacobson estimators behind the
// adaptive silence threshold. Updates are load/store (not CAS): two pumps
// can overlap briefly across a reconnect, and a lost statistical sample
// is harmless.
func (t *tcpTransport) observe(dst, src int, now int64) {
	prev := t.lastSeen[dst][src].Swap(now)
	sample := now - prev
	if sample <= 0 {
		return
	}
	avg := t.hbAvg[dst][src].Load()
	if avg == 0 {
		t.hbAvg[dst][src].Store(sample)
		t.hbDev[dst][src].Store(sample / 2)
		return
	}
	diff := sample - avg
	t.hbAvg[dst][src].Store(avg + diff/8)
	if diff < 0 {
		diff = -diff
	}
	dev := t.hbDev[dst][src].Load()
	t.hbDev[dst][src].Store(dev + (diff-dev)/4)
}

// silenceLimit returns the silence (nanoseconds) beyond which dst's view
// of src counts as failure evidence: the configured timeout floor, raised
// by the observed interarrival statistics so a link that is merely slow
// or jittery does not read as dead.
func (t *tcpTransport) silenceLimit(dst, src int) int64 {
	base := t.opts.HeartbeatTimeout.Nanoseconds()
	avg := t.hbAvg[dst][src].Load()
	if avg == 0 {
		return base
	}
	adaptive := avg + 4*t.hbDev[dst][src].Load() + 2*t.opts.HeartbeatInterval.Nanoseconds()
	if adaptive > base {
		return adaptive
	}
	return base
}

// peerGone handles an unexpected disconnect of the src->dst stream.
func (t *tcpTransport) peerGone(dst, src int) {
	select {
	case <-t.closed:
		return // normal teardown
	default:
	}
	if t.world.IsFailed(dst) || t.world.IsFailed(src) {
		return // the corpse is already known
	}
	if t.opts.HeartbeatTimeout > 0 {
		return // the silence monitor decides; the peer may reconnect
	}
	t.world.Fail(src)
}

// heartbeat emits heartbeat frames from rank src to every peer until the
// transport closes or src dies.
func (t *tcpTransport) heartbeat(src int) {
	defer t.wg.Done()
	n := len(t.world.procs)
	buf := make([]byte, frameHeaderLen)
	frameInto(buf, &envelope{ctx: heartbeatCtx, src: src})
	ticker := time.NewTicker(t.opts.HeartbeatInterval)
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
		if t.silenced[src].Load() {
			continue
		}
		if d := t.hbDelay[src].Load(); d > 0 {
			select {
			case <-t.closed:
				return
			case <-time.After(time.Duration(d)):
			}
		}
		for dst := 0; dst < n; dst++ {
			if dst == src || t.world.IsFailed(dst) || t.hbMute[src*n+dst].Load() {
				continue
			}
			t.writeFrame(src, dst, buf) // errors left to the monitor
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
	ticker := time.NewTicker(t.opts.HeartbeatInterval)
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
				if now-t.lastSeen[dst][src].Load() > t.silenceLimit(dst, src) {
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
	if t.listeners[rank] != nil {
		t.listeners[rank].Close()
	}
	n := len(t.world.procs)
	for other := 0; other < n; other++ {
		if other == rank {
			continue
		}
		t.closePair(rank, other)
		t.closePair(other, rank)
	}
}

// closePair closes the src->dst connection, if any.
func (t *tcpTransport) closePair(src, dst int) {
	n := len(t.world.procs)
	mu := &t.connMu[src*n+dst]
	mu.Lock()
	conn := t.conns[src][dst]
	t.conns[src][dst] = nil
	mu.Unlock()
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
		for src := range t.conns {
			for dst := range t.conns[src] {
				if dst != src {
					t.closePair(src, dst)
				}
			}
		}
	})
	t.wg.Wait()
	return nil
}
