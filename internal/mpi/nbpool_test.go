package mpi

import (
	"fmt"
	"testing"

	"repro/internal/vclock"
)

// Pooled-payload ownership under nonblocking receives: an envelope the
// progress engine has claimed for a posted Irecv must keep its pooled
// payload until Wait consumes it. The tests below flood the buffer pool
// with unrelated traffic while claimed envelopes sit unconsumed; a
// premature recycle would hand those bytes to the churn messages and
// corrupt the patterns (and trip the race detector on the TCP path).
// They guard the copy-on-retain discipline that keeps the wire path at
// its low allocs/op without giving callers aliased pool memory.

const (
	nbPoolMsgs  = 8    // patterned messages held pending
	nbPoolChurn = 64   // pool-churning ping-pongs while they pend
	nbPoolSize  = 8192 // payload size, comfortably pool-backed
	nbPoolTag   = 100  // patterned tags start here; churn uses tag 0
)

// nbPoolPattern fills a payload deterministically per message index.
func nbPoolPattern(i int) []byte {
	data := make([]byte, nbPoolSize)
	for j := range data {
		data[j] = byte(i*31 + j)
	}
	return data
}

// runIrecvOwnership drives one world: rank 0 posts Irecvs for the
// patterned tags, both ranks churn the pool with blocking ping-pongs on
// a disjoint tag (arrived pattern envelopes get claimed — but not
// consumed — by the engine on those calls), then rank 0 Waits each
// request and verifies every byte.
func runIrecvOwnership(t *testing.T, w *World) {
	t.Helper()
	err := w.Run(func(p *Proc) error {
		comm := p.CommWorld()
		churn := make([]byte, nbPoolSize)
		for j := range churn {
			churn[j] = 0xEE
		}
		if p.Rank() == 0 {
			reqs := make([]*Request, nbPoolMsgs)
			for i := range reqs {
				reqs[i] = comm.Irecv(1, nbPoolTag+i)
			}
			for i := 0; i < nbPoolChurn; i++ {
				comm.Recv(1, 0)
				comm.Send(1, 0, churn)
			}
			for i, r := range reqs {
				data, st := r.Wait()
				want := nbPoolPattern(i)
				if len(data) != len(want) {
					return fmt.Errorf("req %d: got %d bytes, want %d", i, len(data), len(want))
				}
				for j := range data {
					if data[j] != want[j] {
						return fmt.Errorf("req %d: byte %d corrupted: got %#x want %#x (pooled payload recycled while request pending?)", i, j, data[j], want[j])
					}
				}
				if st.Tag != nbPoolTag+i {
					return fmt.Errorf("req %d: status tag %d, want %d", i, st.Tag, nbPoolTag+i)
				}
			}
		} else {
			for i := 0; i < nbPoolMsgs; i++ {
				comm.Send(0, nbPoolTag+i, nbPoolPattern(i))
			}
			for i := 0; i < nbPoolChurn; i++ {
				comm.Send(0, 0, churn)
				comm.Recv(0, 0)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIrecvPooledOwnershipInProcess(t *testing.T) {
	c := testCluster(2)
	runIrecvOwnership(t, NewWorld(c, OneProcessPerMachine(c)))
}

func TestIrecvPooledOwnershipTCP(t *testing.T) {
	c := testCluster(2)
	w, closeT, err := NewWorldTCPOpts(c, OneProcessPerMachine(c), TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = closeT() }()
	runIrecvOwnership(t, w)
}

// xorBytes is an exact reduction operator: any stray byte shows.
func xorBytes(inout, in []byte) {
	for i := range inout {
		inout[i] ^= in[i]
	}
}

// runNbCollOwnership is the same guard for the pooled copies a collective
// send makes in-process: both ranks post an Iallreduce (ring: the chunks
// are folded in place) and an Ibcast (segmented: the segments land in
// place), whose envelopes the engine claims and holds; then they churn the
// very size class those payloads sit in — blocking ring Allreduces take
// and return pooled buffers, ping-pongs drive the engine — and only then
// Wait. A claimed payload recycled early would come back as churn bytes.
func runNbCollOwnership(t *testing.T, w *World) {
	t.Helper()
	w.SetCollTuning(&CollTuning{Allreduce: AllreduceRing, Bcast: BcastSegmented, SegSize: nbPoolSize, ElemSize: 1})
	err := w.Run(func(p *Proc) error {
		comm := p.CommWorld()
		me, peer := p.Rank(), 1-p.Rank()
		contribution := func(r int) []byte { return append(nbPoolPattern(2*r), nbPoolPattern(2*r+1)...) } // two ring chunks of nbPoolSize
		var bdata, bwant []byte
		for i := 0; i < 4; i++ { // four segments of nbPoolSize
			bwant = append(bwant, nbPoolPattern(10+i)...)
		}
		if me == 0 {
			bdata = bwant
		}
		ar := comm.Iallreduce(contribution(me), xorBytes)
		bc := comm.Ibcast(0, bdata)

		churn := make([]byte, 2*nbPoolSize)
		for j := range churn {
			churn[j] = 0xEE
		}
		for i := 0; i < nbPoolChurn; i++ {
			if me == 0 {
				comm.Recv(peer, 0)
				comm.Send(peer, 0, churn)
			} else {
				comm.Send(peer, 0, churn)
				comm.Recv(peer, 0)
			}
			if got := comm.Allreduce(churn, xorBytes); got[0] != 0 || got[len(got)-1] != 0 {
				return fmt.Errorf("churn allreduce %d: got %#x, want 0", i, got[0])
			}
		}

		sum := contribution(0)
		xorBytes(sum, contribution(1))
		for _, k := range []struct {
			name string
			req  *Request
			want []byte
		}{{"iallreduce", ar, sum}, {"ibcast", bc, bwant}} {
			got, _ := k.req.Wait()
			if len(got) != len(k.want) {
				return fmt.Errorf("%s: got %d bytes, want %d", k.name, len(got), len(k.want))
			}
			for j := range got {
				if got[j] != k.want[j] {
					return fmt.Errorf("%s: byte %d corrupted: got %#x want %#x (pooled payload recycled while the collective was pending?)", k.name, j, got[j], k.want[j])
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNbCollPooledOwnershipInProcess(t *testing.T) {
	c := testCluster(2)
	runNbCollOwnership(t, NewWorld(c, OneProcessPerMachine(c)))
}

// TestNbCollPooledOwnershipChaos: the same world behind a link filter that
// duplicates every third frame and drops every fifth once, so the wire
// duplicate (cloneEnvelope), the receiver's duplicate suppression and the
// retransmit loop all handle pool-backed envelopes.
func TestNbCollPooledOwnershipChaos(t *testing.T) {
	c := testCluster(2)
	w := NewWorld(c, OneProcessPerMachine(c))
	w.SetLinkFilter(func(src, dst int, at vclock.Time, seq int64, attempt int) LinkOutcome {
		return LinkOutcome{Dup: seq%3 == 0, Drop: seq%5 == 0 && attempt == 0}
	})
	w.SetRetransmit(DefaultRetryPolicy())
	runNbCollOwnership(t, w)
	var dups, resent int64
	for _, st := range w.LinkStatsSnapshot() {
		dups, resent = dups+st.Dups, resent+st.Retransmits
	}
	if dups == 0 || resent == 0 {
		t.Fatalf("filter injected %d duplicates and %d retransmissions: the chaos paths were not exercised", dups, resent)
	}
}
