package mpi

import "fmt"

// Group is an ordered set of world ranks, the MPI group abstraction. Groups
// are immutable values. Of the MPI-1 group constructors only Incl is here:
// HMPI's own group constructor is performance-model driven, and nothing in
// the tree built a group by set algebra or rank ranges.
type Group struct {
	ranks []int // world ranks; index in the slice is the group rank
}

// NewGroup builds a group from world ranks. Ranks must be distinct.
func NewGroup(ranks []int) *Group {
	seen := make(map[int]bool, len(ranks))
	for _, r := range ranks {
		if seen[r] {
			panic(fmt.Sprintf("mpi: duplicate rank %d in group", r))
		}
		seen[r] = true
	}
	return &Group{ranks: append([]int(nil), ranks...)}
}

// Size returns the number of processes in the group.
func (g *Group) Size() int { return len(g.ranks) }

// Ranks returns a copy of the group's world ranks in group-rank order.
func (g *Group) Ranks() []int { return append([]int(nil), g.ranks...) }

// WorldRank returns the world rank of the process with the given group
// rank.
func (g *Group) WorldRank(groupRank int) int { return g.ranks[groupRank] }

// Rank returns the group rank of the given world rank, or -1 if the world
// rank is not a member (MPI_UNDEFINED).
func (g *Group) Rank(worldRank int) int {
	for i, r := range g.ranks {
		if r == worldRank {
			return i
		}
	}
	return -1
}

// Contains reports whether the world rank is a member.
func (g *Group) Contains(worldRank int) bool { return g.Rank(worldRank) >= 0 }

// Incl returns the group containing the processes with the listed group
// ranks of g, in the listed order (MPI_Group_incl).
func (g *Group) Incl(groupRanks []int) *Group {
	out := make([]int, len(groupRanks))
	for i, r := range groupRanks {
		out[i] = g.ranks[r]
	}
	return NewGroup(out)
}

// Equal reports whether both groups contain the same processes in the same
// order (MPI_IDENT).
func (g *Group) Equal(h *Group) bool {
	if len(g.ranks) != len(h.ranks) {
		return false
	}
	for i := range g.ranks {
		if g.ranks[i] != h.ranks[i] {
			return false
		}
	}
	return true
}
