package mpi

import (
	"fmt"
	"testing"
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
	w, closeT, err := newWorldTCPOpts(c, OneProcessPerMachine(c), tcpOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = closeT() }()
	runIrecvOwnership(t, w)
}
