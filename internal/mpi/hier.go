package mpi

// The hierarchy layer: the machine structure of a communicator and the
// node-level and net-level tier communicators derived from it, which the
// two-level collective schedules (collsched.go) run on — in the spirit of
// MPICH-G2's multilevel topology-aware collectives.
//
// Processes co-located on one machine form a node tier; the lowest
// communicator rank on each machine is the machine's leader, and the
// leaders form the net tier. Both tiers are derived purely locally: every
// rank knows the full placement and the member list, so the tier
// membership, ordering and context ids are computed without any
// communication, and the derivation is cached on the Comm handle. Derived
// communicators (Dup/Split/Create/Shrink/NewCommFromGroup) do not share
// the parent's cache — each recomputes its own tiers from its own member
// list on first use, so a communicator that Shrink dropped a machine from
// sees the machine disappear from its net tier.

// Reserved allocContext sequence numbers for the tier communicators.
// nextContext's deriveSeq counts 1, 2, ... upward, so negative constants
// can never collide with it — important because the hierarchy is derived
// lazily at different times on different ranks and must not touch the
// collective constructors' agreed counters. The node tier reserves one
// base id and offsets it by the machine-group index (same trick as
// Split's per-color offset, and far below contextStride).
const (
	hierSeqNode int64 = -1
	hierSeqNet  int64 = -2
)

// tiers is the machine structure of a communicator: which of its ranks
// share a machine. Pure data derived from the placement, so the schedule
// builders and the replay use it without a live communicator.
type tiers struct {
	// groups lists the communicator ranks on each distinct machine, in
	// ascending rank order; groups are ordered by their leader's rank
	// (the machine's lowest communicator rank). groups[g][0] is group
	// g's leader.
	groups  [][]int
	groupOf []int // communicator rank -> group index
	idx     []int // communicator rank -> index within its group
	leaders []int // groups[g][0] for every g: the net tier
	viable  bool  // >1 machine and some machine holds >1 rank
}

// machineTiers groups ranks 0..n-1 by machineOf.
func machineTiers(n int, machineOf func(rank int) int) *tiers {
	m := &tiers{groupOf: make([]int, n), idx: make([]int, n)}
	byMachine := make(map[int]int) // machine index -> group index
	maxNode := 0
	for r := 0; r < n; r++ {
		g, ok := byMachine[machineOf(r)]
		if !ok {
			g = len(m.groups)
			byMachine[machineOf(r)] = g
			m.groups = append(m.groups, nil)
			m.leaders = append(m.leaders, r)
		}
		m.groupOf[r], m.idx[r] = g, len(m.groups[g])
		m.groups[g] = append(m.groups[g], r)
		maxNode = max(maxNode, len(m.groups[g]))
	}
	m.viable = len(m.groups) > 1 && maxNode > 1
	return m
}

// node is the view over the ranks sharing rank's machine; index 0 is the
// machine's leader.
func (m *tiers) node(rank int) view {
	grp := m.groups[m.groupOf[rank]]
	return view{tier: tierNode, ranks: grp, size: len(grp), me: m.idx[rank]}
}

// net is the view over the machine leaders, indexed by group; a rank that
// is not a leader is not a member.
func (m *tiers) net(rank int) view {
	v := view{tier: tierNet, ranks: m.leaders, size: len(m.leaders), me: -1}
	if m.idx[rank] == 0 {
		v.me = m.groupOf[rank]
	}
	return v
}

// hierInfo is the cached hierarchy of one communicator handle.
type hierInfo struct {
	*tiers
	node *Comm // this rank's node tier (always non-nil)
	net  *Comm // the leaders' net tier; nil on non-leaders
}

// hier derives (or returns the cached) hierarchy of the communicator.
// Pure local: no communication, no clock movement.
func (c *Comm) hier() *hierInfo {
	if c.hi != nil {
		return c.hi
	}
	if c.rank < 0 || len(c.s.members) == 0 {
		panic("mpi: hierarchy of a freed communicator")
	}
	w := c.p.world
	h := &hierInfo{tiers: machineTiers(len(c.s.members), func(r int) int { return w.place[c.s.members[r]] })}
	myG := h.groupOf[c.rank]
	// Node tier: the members on this rank's machine, in rank order, so
	// node rank 0 is the leader. Every member of the parent computes the
	// same (parent id, seq) key, so allocContext hands all of them the
	// same base id; distinct machines get distinct offsets.
	nodeBase := w.allocContext(c.s.id, hierSeqNode)
	h.node = &Comm{
		p:      c.p,
		s:      &commShared{id: nodeBase + int64(myG), members: c.worldRanks(h.groups[myG])},
		rank:   h.idx[c.rank],
		tuning: c.tuning,
	}
	// Net tier: one leader per machine, ordered by group index (ascending
	// leader rank). Only leaders hold a handle.
	if h.idx[c.rank] == 0 {
		h.net = &Comm{
			p:      c.p,
			s:      &commShared{id: w.allocContext(c.s.id, hierSeqNet), members: c.worldRanks(h.leaders)},
			rank:   myG,
			tuning: c.tuning,
		}
	}
	c.hi = h
	return h
}

// worldRanks maps communicator ranks to world ranks.
func (c *Comm) worldRanks(ranks []int) []int {
	out := make([]int, len(ranks))
	for i, r := range ranks {
		out[i] = c.s.members[r]
	}
	return out
}

// hierViable reports whether the communicator has a genuine two-level
// structure (spans >1 machine and some machine holds >1 member). Every
// member computes the same answer from the shared placement, so the
// hierarchical algorithms can key on it without negotiation.
func (c *Comm) hierViable() bool {
	if len(c.s.members) < 3 {
		return false // two levels need at least 2 machines x (1+2) ranks
	}
	return c.hier().viable
}

// freeHier releases the cached tier communicators (called by Comm.Free:
// the parent owns its tiers).
func (c *Comm) freeHier() {
	if c.hi == nil {
		return
	}
	h := c.hi
	c.hi = nil
	if h.node != nil {
		h.node.Free()
	}
	if h.net != nil {
		h.net.Free()
	}
}
