package mpi

import (
	"fmt"
	"testing"
)

func TestCommWorldShape(t *testing.T) {
	w := newTestWorld(t, 4)
	runWorld(t, w, func(p *Proc) error {
		comm := p.CommWorld()
		if comm.Size() != 4 || comm.Rank() != p.Rank() {
			return fmt.Errorf("world comm size %d rank %d", comm.Size(), comm.Rank())
		}
		grp := comm.Group()
		if grp.Size() != 4 || grp.WorldRank(2) != 2 {
			return fmt.Errorf("world group wrong: %v", grp.Ranks())
		}
		return nil
	})
}

func TestSplitByParity(t *testing.T) {
	w := newTestWorld(t, 5)
	runWorld(t, w, func(p *Proc) error {
		comm := p.CommWorld()
		sub := comm.Split(p.Rank()%2, p.Rank())
		wantSize := 3 // ranks 0,2,4
		if p.Rank()%2 == 1 {
			wantSize = 2 // ranks 1,3
		}
		if sub.Size() != wantSize {
			return fmt.Errorf("rank %d sub size %d, want %d", p.Rank(), sub.Size(), wantSize)
		}
		if sub.s.members[sub.Rank()] != p.Rank() {
			return fmt.Errorf("rank mapping broken")
		}
		// Members are ordered by key (= world rank here).
		for i := 1; i < sub.Size(); i++ {
			if sub.s.members[i] < sub.s.members[i-1] {
				return fmt.Errorf("sub comm not ordered by key: %d before %d",
					sub.s.members[i-1], sub.s.members[i])
			}
		}
		return nil
	})
}

func TestSplitKeyOrdersRanks(t *testing.T) {
	w := newTestWorld(t, 4)
	runWorld(t, w, func(p *Proc) error {
		comm := p.CommWorld()
		// Reverse order: key = -rank.
		sub := comm.Split(0, -p.Rank())
		if got := sub.Rank(); got != 3-p.Rank() {
			return fmt.Errorf("world rank %d got sub rank %d, want %d", p.Rank(), got, 3-p.Rank())
		}
		return nil
	})
}

func TestSplitUndefined(t *testing.T) {
	w := newTestWorld(t, 4)
	runWorld(t, w, func(p *Proc) error {
		comm := p.CommWorld()
		color := 1
		if p.Rank() == 3 {
			color = Undefined
		}
		sub := comm.Split(color, 0)
		if p.Rank() == 3 {
			if sub != nil {
				return fmt.Errorf("Undefined color produced a communicator")
			}
			return nil
		}
		if sub == nil || sub.Size() != 3 {
			return fmt.Errorf("sub = %v", sub)
		}
		return nil
	})
}

func TestSplitIsolation(t *testing.T) {
	// Messages in one half must be invisible to the other even with equal
	// ranks and tags.
	w := newTestWorld(t, 4)
	runWorld(t, w, func(p *Proc) error {
		comm := p.CommWorld()
		sub := comm.Split(p.Rank()/2, p.Rank()) // {0,1} and {2,3}
		if sub.Rank() == 0 {
			sub.Send(1, 42, []byte{byte(p.Rank())})
		} else {
			data, _ := sub.Recv(0, 42)
			wantSender := byte(p.Rank() - 1)
			if data[0] != wantSender {
				return fmt.Errorf("rank %d received from world rank %d, want %d",
					p.Rank(), data[0], wantSender)
			}
		}
		return nil
	})
}

func TestDupIsolation(t *testing.T) {
	w := newTestWorld(t, 2)
	runWorld(t, w, func(p *Proc) error {
		comm := p.CommWorld()
		dup := comm.Dup()
		if dup.Size() != comm.Size() || dup.Rank() != comm.Rank() {
			return fmt.Errorf("dup shape wrong")
		}
		if p.Rank() == 0 {
			comm.Send(1, 1, []byte("orig"))
			dup.Send(1, 1, []byte("dup"))
		} else {
			// Receive from the dup first: must not match the original's
			// message.
			d, _ := dup.Recv(0, 1)
			o, _ := comm.Recv(0, 1)
			if string(d) != "dup" || string(o) != "orig" {
				return fmt.Errorf("context isolation broken: %q %q", d, o)
			}
		}
		return nil
	})
}

func TestCommCreate(t *testing.T) {
	w := newTestWorld(t, 5)
	runWorld(t, w, func(p *Proc) error {
		comm := p.CommWorld()
		grp := comm.Group().Incl([]int{4, 2, 0})
		sub := comm.Create(grp)
		if p.Rank()%2 == 1 {
			if sub != nil {
				return fmt.Errorf("non-member got a communicator")
			}
			return nil
		}
		if sub == nil {
			return fmt.Errorf("member %d got nil", p.Rank())
		}
		// Order follows the group: 4, 2, 0.
		wantRank := map[int]int{4: 0, 2: 1, 0: 2}[p.Rank()]
		if sub.Rank() != wantRank {
			return fmt.Errorf("rank %d got sub rank %d, want %d", p.Rank(), sub.Rank(), wantRank)
		}
		// The new communicator works.
		got := sub.Bcast(0, []byte{byte(p.Rank())})
		if got[0] != 4 {
			return fmt.Errorf("bcast over created comm got %v", got)
		}
		return nil
	})
}

func TestNestedSplit(t *testing.T) {
	// Split a split communicator; contexts must stay distinct.
	w := newTestWorld(t, 8)
	runWorld(t, w, func(p *Proc) error {
		comm := p.CommWorld()
		half := comm.Split(p.Rank()/4, p.Rank())    // {0..3}, {4..7}
		quad := half.Split(half.Rank()/2, p.Rank()) // pairs
		if quad.Size() != 2 {
			return fmt.Errorf("quad size %d", quad.Size())
		}
		peer := 1 - quad.Rank()
		data, _ := quad.Sendrecv(peer, 0, []byte{byte(p.Rank())}, peer, 0)
		wantPeer := p.Rank() ^ 1
		if int(data[0]) != wantPeer {
			return fmt.Errorf("rank %d paired with %d, want %d", p.Rank(), data[0], wantPeer)
		}
		return nil
	})
}

func TestDeterministicVirtualTimes(t *testing.T) {
	// The simulation must be deterministic: identical programs produce
	// identical makespans across repeated runs despite goroutine
	// scheduling noise.
	run := func() float64 {
		c := testCluster(6)
		w := NewWorld(c, OneProcessPerMachine(c))
		if err := w.Run(func(p *Proc) error {
			comm := p.CommWorld()
			p.Compute(float64(10 * (p.Rank() + 1)))
			data := comm.Bcast(0, []byte("seed"))
			_ = comm.Allgather(data)
			comm.Barrier()
			sum := comm.Allreduce(Float64Bytes([]float64{float64(p.Rank())}), SumFloat64)
			_ = sum
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return float64(w.Makespan())
	}
	first := run()
	for i := 0; i < 10; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d makespan %v != %v", i, got, first)
		}
	}
}

func TestUseAfterFreePanics(t *testing.T) {
	w := newTestWorld(t, 2)
	err := w.Run(func(p *Proc) error {
		comm := p.CommWorld().Dup()
		comm.Free()
		if p.Rank() == 0 {
			comm.Send(1, 0, []byte{1}) // must panic: freed handle
		}
		return nil
	})
	if err == nil {
		t.Fatal("send on a freed communicator succeeded")
	}
}
