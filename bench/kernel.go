package main

import (
	"encoding/binary"
	"fmt"

	"repro/internal/hnoc"
	"repro/internal/mpi"
	"repro/internal/vclock"
)

// The communication-only kernel behind msg-inproc and msg-tcp: blocking
// and nonblocking point-to-point and the size-keyed collectives, at four
// payload sizes from per-message-cost bound (8 B) to copy/bandwidth bound
// (512 KiB), on the nine ranks of Paper9.
//
// The issue's kernel also had rank 0 drain one message from every other
// rank with AnySource. That step is left out of both kernels: a wildcard
// receive takes whichever message reached the mailbox first in host time,
// so its simulated completion time differed from run to run (27 distinct
// makespans in 30 runs of the full kernel, one with the step removed) and
// sim_s_per_op could be neither verified nor compared across transports.
// The layer suite still times it as mpi.anysource_us.

const (
	kernelIters = 4

	tagRing = 1 + iota
	tagPing
	tagPong
	tagHalo
)

// kernelSizes are the class sizes; the seed adds at most 64 elements.
var kernelSizes = []int{8, 1 << 10, 32 << 10, 512 << 10}

// msgInputs are one seed's payloads and the values every rank must see.
type msgInputs struct {
	sizes   []int
	payload [][][]byte // [size][rank]
	sum     [][]uint64 // checksum of payload[size][rank]
	reduced []uint64   // checksum of the element-wise sum over ranks
}

// sum64 is the payload checksum: the wrapping sum of the little-endian
// words, position-weighted by a running rotate so swapped words show.
func sum64(b []byte) uint64 {
	var h uint64
	for ; len(b) >= 8; b = b[8:] {
		h = (h<<1 | h>>63) + binary.LittleEndian.Uint64(b)
	}
	return h
}

// newMsgInputs draws the payloads. Elements are small integers stored as
// float64, so the Allreduce sum is exact whatever order an algorithm
// folds in, and every algorithm must produce the same bytes.
func newMsgInputs(seed uint64, ranks int) *msgInputs {
	r := rng(seed ^ 0xbb67ae8584caa73b)
	in := &msgInputs{}
	for _, class := range kernelSizes {
		elems := class / 8
		if class == kernelSizes[len(kernelSizes)-1] {
			elems += r.intn(65) // the small classes stay exact
		}
		in.sizes = append(in.sizes, elems*8)
		total := make([]float64, elems)
		var payloads [][]byte
		var sums []uint64
		for rank := 0; rank < ranks; rank++ {
			xs := make([]float64, elems)
			for i := range xs {
				xs[i] = float64(r.next() % 1024)
				total[i] += xs[i]
			}
			b := mpi.Float64Bytes(xs)
			payloads = append(payloads, b)
			sums = append(sums, sum64(b))
		}
		in.payload = append(in.payload, payloads)
		in.sum = append(in.sum, sums)
		in.reduced = append(in.reduced, sum64(mpi.Float64Bytes(total)))
	}
	return in
}

func check(step string, size int, got []byte, want uint64) error {
	if len(got) != size || sum64(got) != want {
		return fmt.Errorf("%s at %d bytes: payload differs from reference", step, size)
	}
	return nil
}

// run is the body of one rank. Rank 0 records a span per step when the
// run is traced.
func (in *msgInputs) run(p *mpi.Proc, tr *tracer, opID, parent int) error {
	c := p.CommWorld()
	n, me := c.Size(), c.Rank()
	right, left := (me+1)%n, (me+n-1)%n
	if me != 0 {
		tr = nil
	}
	steps := []struct {
		name string
		fn   func(si, size int, mine []byte, sums []uint64) error
	}{
		{"ring", func(si, size int, mine []byte, sums []uint64) error {
			got, _ := c.Sendrecv(right, tagRing, mine, left, tagRing)
			return check("ring", size, got, sums[left])
		}},
		{"pingpong", func(si, size int, mine []byte, sums []uint64) error {
			switch me {
			case 0:
				c.Send(1, tagPing, mine)
				got, _ := c.Recv(1, tagPong)
				return check("pingpong", size, got, sums[0])
			case 1:
				got, _ := c.Recv(0, tagPing)
				c.Send(0, tagPong, got)
			}
			return nil
		}},
		{"halo", func(si, size int, mine []byte, sums []uint64) error {
			got := mpi.WaitAll([]*mpi.Request{
				c.Irecv(left, tagHalo), c.Irecv(right, tagHalo),
				c.Isend(left, tagHalo, mine), c.Isend(right, tagHalo, mine),
			})
			if err := check("halo", size, got[0], sums[left]); err != nil {
				return err
			}
			return check("halo", size, got[1], sums[right])
		}},
		{"bcast", func(si, size int, mine []byte, sums []uint64) error {
			var data []byte
			if me == 0 {
				data = mine
			}
			return check("bcast", size, c.Bcast(0, data), sums[0])
		}},
		{"allreduce", func(si, size int, mine []byte, sums []uint64) error {
			return check("allreduce", size, c.Allreduce(mine, mpi.SumFloat64), in.reduced[si])
		}},
		{"gather", func(si, size int, mine []byte, sums []uint64) error {
			parts := c.Gather(0, mine)
			if me != 0 {
				return nil
			}
			if len(parts) != n {
				return fmt.Errorf("gather at %d bytes: %d parts for %d ranks", size, len(parts), n)
			}
			for r, part := range parts {
				if err := check("gather", size, part, sums[r]); err != nil {
					return err
				}
			}
			return nil
		}},
		{"barrier", func(si, size int, mine []byte, sums []uint64) error { c.Barrier(); return nil }},
	}
	for it := 0; it < kernelIters; it++ {
		for si, size := range in.sizes {
			for _, s := range steps {
				id := -1
				if tr != nil {
					id = tr.begin(fmt.Sprintf("%s.%d", s.name, kernelSizes[si]), "mpi", opID, parent)
				}
				err := s.fn(si, size, in.payload[si][me], in.sum[si])
				tr.end(id)
				if err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// msgOp runs the kernel once on a fresh world over the given transport
// and returns the simulated makespan.
func (in *msgInputs) msgOp(tcp bool, tr *tracer, opID, parent int) (vclock.Time, error) {
	cluster := hnoc.Paper9()
	placement := mpi.OneProcessPerMachine(cluster)
	var w *mpi.World
	closeWorld := func() error { return nil }
	id := tr.begin("mpi.world_setup", "mpi", opID, parent)
	if tcp {
		var err error
		if w, closeWorld, err = mpi.NewWorldTCP(cluster, placement); err != nil {
			return 0, err
		}
	} else {
		w = mpi.NewWorld(cluster, placement)
	}
	w.SetCollTuning(mpi.AutoCollTuning())
	tr.end(id)
	id = tr.begin("mpi.run", "mpi", opID, parent)
	err := w.Run(func(p *mpi.Proc) error { return in.run(p, tr, opID, id) })
	tr.end(id)
	id = tr.begin("mpi.world_close", "mpi", opID, parent)
	cerr := closeWorld()
	tr.end(id)
	if err == nil {
		err = cerr
	}
	return w.Makespan(), err
}
