package mpi

import (
	"encoding/binary"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// laneStress is the message-path stress program: ranks 1..8 each send
// total/8 messages to rank 0, alternating CommWorld and a Dup of it, with
// tags 0..2, by Send and by IsendOwned. Rank 0 takes them with a seeded mix
// of directed and AnySource Recvs, posted directed and AnySource Irecvs
// (up to four outstanding, waited in random order) and Iprobes each
// followed by the Recv of what it reported. The run is two halves with a
// Barrier between them; midway, when non-nil, runs on every sender after
// the Barrier, before the second half. It checks that each (sender,
// communicator) pair's messages were taken in per-pair FIFO order by
// posting order, none lost or duplicated, and that nothing is left over.
func laneStress(t *testing.T, w *World, total int, midway func(p *Proc)) {
	t.Helper()
	const senders = 8
	per := total / senders
	err := runWithTimeout(t, w, 120*time.Second, func(p *Proc) error {
		comms := [2]*Comm{p.CommWorld(), p.CommWorld().Dup()}
		if p.Rank() > 0 {
			half := func(lo, hi int) {
				for i := lo; i < hi; i++ {
					data := binary.LittleEndian.AppendUint64(nil, uint64(i))
					if c := comms[i%2]; i%4 == 0 {
						c.Send(0, i%3, data)
					} else {
						c.IsendOwned(0, i%3, data)
					}
				}
			}
			half(0, per/2)
			comms[0].Barrier()
			if midway != nil {
				midway(p)
			}
			half(per/2, per)
			comms[0].Barrier()
			return nil
		}
		owner := &laneOwner{comms: comms, rng: rand.New(rand.NewSource(1))}
		owner.phase(0, per/2)
		comms[0].Barrier()
		owner.phase(per/2, per)
		comms[0].Barrier()
		for k, c := range comms {
			if ok, st := c.Iprobe(AnySource, AnyTag); ok {
				t.Errorf("comm %d: a message from %d is left over after every message was taken", k, st.Source)
			}
		}
		owner.check(t, per)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// laneOwner is rank 0 of laneStress: what it has taken and what it may
// still ask for without waiting on a message nobody will send.
type laneOwner struct {
	comms [2]*Comm
	rng   *rand.Rand
	posts int // receive operations started, in posting order
	// got[k][s] holds (posting index, sequence) of every message taken
	// from sender s on comms[k].
	got [2][9][][2]int
	// left[k][s] counts this half's messages from s on comms[k] that no
	// completed receive took; outAny[k] and outDir[k][s] count the posted
	// receives not yet waited.
	left    [2][9]int
	outAny  [2]int
	outDir  [2][9]int
	pending []lanePost
}

type lanePost struct {
	r   *Request
	k   int
	src int // AnySource for a wildcard
	idx int
}

// phase takes every message the senders send with indices [lo, hi).
func (o *laneOwner) phase(lo, hi int) {
	want := 0
	for i := lo; i < hi; i++ {
		for s := 1; s <= 8; s++ {
			o.left[i%2][s]++
			want++
		}
	}
	for got := 0; got < want; {
		k := o.rng.Intn(2)
		c := o.comms[k]
		s := 1 + o.rng.Intn(8)
		any := o.rng.Intn(2) == 0
		switch op := o.rng.Intn(10); {
		case op < 4: // blocking receive
			if o.can(k, s, any) {
				src := s
				if any {
					src = AnySource
				}
				idx := o.post()
				d, st := c.Recv(src, AnyTag)
				o.took(k, idx, d, st)
				got++
			}
		case op < 7: // posted receive
			if len(o.pending) < 4 && o.can(k, s, any) {
				src := s
				if any {
					src = AnySource
					o.outAny[k]++
				} else {
					o.outDir[k][s]++
				}
				idx := o.post()
				o.pending = append(o.pending, lanePost{c.Irecv(src, AnyTag), k, src, idx})
			}
		case op < 8: // probe, then take what it reported
			if ok, st := c.Iprobe(AnySource, AnyTag); ok {
				idx := o.post()
				d, rst := c.Recv(st.Source, AnyTag)
				if rst != st {
					panic("Recv after Iprobe took a different message than the probe reported")
				}
				o.took(k, idx, d, rst)
				got++
			}
		default: // complete a posted receive
			if len(o.pending) > 0 {
				i := o.rng.Intn(len(o.pending))
				q := o.pending[i]
				o.pending = slices.Delete(o.pending, i, i+1)
				if q.src == AnySource {
					o.outAny[q.k]--
				} else {
					o.outDir[q.k][q.src]--
				}
				d, st := q.r.Wait()
				o.took(q.k, q.idx, d, st)
				got++
			}
		}
	}
}

// can reports whether a receive from s (any source when any is set) on
// comms[k] is sure to find a message however the posted receives claim.
func (o *laneOwner) can(k, s int, any bool) bool {
	if !any {
		return o.left[k][s] > o.outAny[k]+o.outDir[k][s]
	}
	left, out := 0, o.outAny[k]
	for src := 1; src <= 8; src++ {
		left += o.left[k][src]
		out += o.outDir[k][src]
	}
	return left > out
}

func (o *laneOwner) post() int {
	o.posts++
	return o.posts
}

func (o *laneOwner) took(k, idx int, d []byte, st Status) {
	i := int(binary.LittleEndian.Uint64(d))
	if i%2 != k {
		panic("message arrived on the other communicator")
	}
	o.left[k][st.Source]--
	o.got[k][st.Source] = append(o.got[k][st.Source], [2]int{idx, i / 2})
}

// check: by posting order, each pair's sequence is exactly 0, 1, 2, ...
func (o *laneOwner) check(t *testing.T, per int) {
	for k := range o.got {
		for s := 1; s <= 8; s++ {
			g := o.got[k][s]
			slices.SortFunc(g, func(a, b [2]int) int { return a[0] - b[0] })
			want := (per + 1 - k) / 2
			if len(g) != want {
				t.Errorf("comm %d sender %d: took %d messages, want %d", k, s, len(g), want)
			}
			for j, e := range g {
				if e[1] != j {
					t.Errorf("comm %d sender %d: receive %d took message %d, want %d (per-pair FIFO)", k, s, j, e[1], j)
					break
				}
			}
		}
	}
}

// TestLaneStress: 50 000 messages from eight senders on two communicators
// into one owner that mixes every kind of receive; at the end no rank is
// counted running or asleep.
func TestLaneStress(t *testing.T) {
	w := newTestWorld(t, 9)
	laneStress(t, w, 50000, nil)
	if v := w.live.Load(); v != 0 {
		t.Fatalf("World.live = %d running, %d asleep after Run, want 0 and 0", v>>32, v&(1<<32-1))
	}
}

// TestLaneStressTCPReconnect: the same program over the TCP mesh, every
// sender's connection to the owner closed between the halves, so the
// second half travels over a re-dialled connection and a fresh pump.
func TestLaneStressTCPReconnect(t *testing.T) {
	w, tr := newTestTCP(t, 9)
	laneStress(t, w, 50000, func(p *Proc) { tr.pair(p.Rank(), 0).close() })
	for r := 1; r < w.Size(); r++ {
		if w.IsFailed(r) {
			t.Fatalf("rank %d was marked failed across a reconnect", r)
		}
		p := tr.pair(r, 0)
		p.mu.Lock()
		redialled := p.conn != nil
		p.mu.Unlock()
		if !redialled {
			t.Fatalf("rank %d never re-dialled its connection to rank 0", r)
		}
	}
}
