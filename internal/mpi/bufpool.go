package mpi

// Pooled buffers and envelopes for the per-message hot path: a message
// allocates what its receiver keeps and nothing else. The pools recycle
// every envelope struct; on the TCP transport the header+payload frame of
// a write and the payload slice of a read; in-process (and for wire
// self-delivery) the copy of a collective send whose receive folds or lands
// the payload in place (a step marked pooled, collsched.go). They never
// held the copy of a send whose receiver is handed the payload — Recv,
// Wait, a collective's stRecv: that copy is the receiver's from the start,
// one allocation and one copy per message (sendCommon). The ownership rule:
//
//   - A *poolBuf is owned by whoever obtained it from getBuf. Passing the
//     underlying bytes to another component does NOT transfer ownership;
//     the owner calls release exactly once when the bytes are no longer
//     referenced anywhere.
//   - An envelope whose pbuf field is non-nil carries a pool-backed
//     payload. The two consumption points (Comm.consume in p2p.go,
//     collRun.deliver in collexec.go) enforce copy-on-retain: payloads
//     handed onward to user code leave through envelope.retained, which
//     copies them out of the pooled buffer first; payloads folded into an
//     accumulator are used in place and recycled without a copy (a
//     consumer that keeps e.data fails the collective tests: mutant 17).

import (
	"math/bits"
	"sync"
)

// poolBuf is a pooled byte buffer. b is sliced to the length of the
// request that obtained it; the backing array's capacity is the size
// class, so the wrapper can travel back to the pool without reallocating
// a slice header.
type poolBuf struct {
	b     []byte
	class int // pool index, or -1 when the buffer is not pool-backed
}

// Size classes are powers of two from 64 B to 16 MiB. Requests above the
// largest class fall back to plain allocation (class -1).
const (
	minBufClass = 6  // 64 B
	maxBufClass = 24 // 16 MiB
)

var bufPools [maxBufClass + 1]sync.Pool

// bufClass returns the pool index for a request of n bytes, or -1 when
// the request is too large to pool.
func bufClass(n int) int {
	if n <= 1<<minBufClass {
		return minBufClass
	}
	c := bits.Len(uint(n - 1))
	if c > maxBufClass {
		return -1
	}
	return c
}

// getBuf returns a buffer of length n, pool-backed when possible.
func getBuf(n int) *poolBuf {
	c := bufClass(n)
	if c < 0 {
		return &poolBuf{b: make([]byte, n), class: -1}
	}
	if v := bufPools[c].Get(); v != nil {
		pb := v.(*poolBuf)
		pb.b = pb.b[:n]
		return pb
	}
	return &poolBuf{b: make([]byte, 1<<c)[:n], class: c}
}

// release returns the buffer to its pool. The caller must hold the only
// remaining reference and must not touch the bytes afterwards.
func (pb *poolBuf) release() {
	if pb == nil || pb.class < 0 {
		return
	}
	bufPools[pb.class].Put(pb)
}

// envPool recycles envelope structs. Envelopes are single-consumer: the
// mailbox removes one exactly once, and the consumption helpers recycle
// it after extracting the payload.
var envPool sync.Pool

// getEnv returns a zeroed envelope.
func getEnv() *envelope {
	if v := envPool.Get(); v != nil {
		return v.(*envelope)
	}
	return &envelope{}
}

// retained returns e's payload for a consumer that keeps it: pool-backed
// bytes are copied out first (copy-on-retain), everything else is handed
// over as it is.
func (e *envelope) retained() []byte {
	if e.pbuf != nil {
		return append([]byte(nil), e.data...)
	}
	return e.data
}

// putEnv recycles the envelope struct only; the payload must already
// have been handed over or released by the caller.
func putEnv(e *envelope) {
	*e = envelope{}
	envPool.Put(e)
}

// releaseEnvelope recycles the envelope and, when it carries a
// pool-backed payload, the payload too. Used on paths that drop a
// message without handing its bytes to anyone (failed destinations,
// protocol violations, wire sends once the frame is written).
func releaseEnvelope(e *envelope) {
	if pb := e.pbuf; pb != nil {
		e.pbuf = nil
		e.data = nil
		pb.release()
	}
	putEnv(e)
}
