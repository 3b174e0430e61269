package mpi

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// commShared is the description of a communicator every member agrees on.
// Each process holds its own copy (processes do not share communicator
// state, mirroring distributed MPI), but the copies are identical.
type commShared struct {
	id      int64 // context id isolating this communicator's messages
	members []int // world ranks; index is the communicator rank
	rankIdx map[int]int
}

func (s *commShared) rankOf(worldRank int) int {
	if s.rankIdx == nil {
		s.rankIdx = make(map[int]int, len(s.members))
		for i, r := range s.members {
			s.rankIdx[r] = i
		}
	}
	if r, ok := s.rankIdx[worldRank]; ok {
		return r
	}
	return -1
}

// Comm is a communicator: a communication context over an ordered group of
// processes. Like an MPI_Comm handle, a Comm value belongs to one process
// (the one whose Proc it was derived from).
type Comm struct {
	p     *Proc
	s     *commShared
	rank  int // this process's rank within the communicator
	group *Group

	// tuning selects the collective algorithms this communicator uses
	// (nil means DefaultCollTuning). Inherited by derived communicators.
	tuning *CollTuning

	// hi caches the hierarchy (node/net tier communicators, see hier.go)
	// derived from the placement. Deliberately NOT inherited: a derived
	// communicator starts with a nil cache and recomputes its own tiers
	// from its own member list, so Split/Shrink results never see a stale
	// parent hierarchy. Owned by this handle; released by Free.
	hi *hierInfo

	deriveSeq int64 // per-process count of collective comm constructors
	agreeSeq  int64 // per-process count of AgreeFailed calls (ft.go)
}

// Rank returns the calling process's rank in the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of processes in the communicator.
func (c *Comm) Size() int { return len(c.s.members) }

// Group returns the communicator's group.
func (c *Comm) Group() *Group {
	if c.group == nil {
		c.group = &Group{ranks: append([]int(nil), c.s.members...)}
	}
	return c.group
}

// Proc returns the process this communicator handle belongs to.
func (c *Comm) Proc() *Proc { return c.p }

// nextContext returns the agreed context id for the next derived
// communicator. All members call the collective constructors in the same
// order, so the per-process sequence numbers agree.
func (c *Comm) nextContext() int64 {
	c.deriveSeq++
	return c.p.world.allocContext(c.s.id, c.deriveSeq)
}

// Dup returns a communicator with the same group but a fresh context
// (MPI_Comm_dup). Collective over the communicator.
func (c *Comm) Dup() *Comm {
	id := c.nextContext()
	return &Comm{
		p:      c.p,
		s:      &commShared{id: id, members: append([]int(nil), c.s.members...)},
		rank:   c.rank,
		tuning: c.tuning,
	}
}

// Undefined is the color processes pass to Split to opt out of all result
// communicators (MPI_UNDEFINED).
const Undefined = -(1 << 30)

// Split partitions the communicator by color (MPI_Comm_split): processes
// passing the same color form a new communicator, ordered by (key, rank).
// Processes passing Undefined receive nil. Collective over the
// communicator.
func (c *Comm) Split(color, key int) *Comm {
	id := c.nextContext()
	// Gather every member's (color, key) so each process can compute its
	// subgroup deterministically.
	mine := make([]byte, 16)
	binary.LittleEndian.PutUint64(mine[0:], uint64(int64(color)))
	binary.LittleEndian.PutUint64(mine[8:], uint64(int64(key)))
	all := c.Allgather(mine)
	type entry struct{ color, key, rank int }
	entries := make([]entry, c.Size())
	for r := 0; r < c.Size(); r++ {
		entries[r] = entry{
			color: int(int64(binary.LittleEndian.Uint64(all[r][0:]))),
			key:   int(int64(binary.LittleEndian.Uint64(all[r][8:]))),
			rank:  r,
		}
	}
	if color == Undefined {
		return nil
	}
	// Distinct colors get distinct context offsets; every member computes
	// the same ordering, so the offsets agree.
	seen := map[int]bool{}
	var colors []int
	for _, e := range entries {
		if e.color != Undefined && !seen[e.color] {
			seen[e.color] = true
			colors = append(colors, e.color)
		}
	}
	sort.Ints(colors)
	colorIdx := sort.SearchInts(colors, color)
	var members []entry
	for _, e := range entries {
		if e.color == color {
			members = append(members, e)
		}
	}
	sort.Slice(members, func(i, j int) bool {
		if members[i].key != members[j].key {
			return members[i].key < members[j].key
		}
		return members[i].rank < members[j].rank
	})
	worldRanks := make([]int, len(members))
	myRank := -1
	for i, e := range members {
		worldRanks[i] = c.s.members[e.rank]
		if e.rank == c.rank {
			myRank = i
		}
	}
	// Sub-communicators get distinct contexts per color so messages in
	// different parts cannot cross. allocContext reserves a stride wide
	// enough for any number of colors.
	subID := id + int64(colorIdx)
	return &Comm{
		p:      c.p,
		s:      &commShared{id: subID, members: worldRanks},
		rank:   myRank,
		tuning: c.tuning,
	}
}

// Create returns a communicator over the processes of group, which must be
// a subset of the communicator's group (MPI_Comm_create). Processes outside
// group receive nil. Collective over the communicator: every member must
// call it with an equal group.
func (c *Comm) Create(group *Group) *Comm {
	id := c.nextContext()
	for _, r := range group.ranks {
		if c.s.rankOf(r) < 0 {
			panic(fmt.Sprintf("mpi: Create group member %d outside communicator", r))
		}
	}
	myRank := group.Rank(c.p.rank)
	// All processes must participate in the context allocation (done
	// above); non-members return nil.
	if myRank < 0 {
		return nil
	}
	return &Comm{
		p:      c.p,
		s:      &commShared{id: id, members: group.Ranks()},
		rank:   myRank,
		tuning: c.tuning,
	}
}

// Free releases the communicator and the tier communicators its hierarchy
// cache owns (see hier.go). The simulation keeps no global state per
// communicator, so Free only invalidates the handles against reuse.
func (c *Comm) Free() {
	c.freeHier()
	c.s = &commShared{id: -1}
	c.rank = -1
}

// NewCommFromGroup builds a communicator over the given group using an
// externally agreed key instead of a collective call over a parent
// communicator. Every member must call it with an identical group and key
// (the key is typically distributed by a coordinator process beforehand).
// Non-members receive nil. This is the hook runtimes layered on the
// library — such as HMPI's group creation, whose participant set is not a
// communicator — use to materialise a communicator for a selected set of
// processes.
func NewCommFromGroup(p *Proc, group *Group, key int64) *Comm {
	id := p.world.allocContext(-2, key)
	rank := group.Rank(p.rank)
	if rank < 0 {
		return nil
	}
	return &Comm{
		p:      p,
		s:      &commShared{id: id, members: group.Ranks()},
		rank:   rank,
		tuning: p.world.collTuning,
	}
}
