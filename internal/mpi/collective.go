package mpi

import "fmt"

// Collective operations. All members of the communicator must call the
// same collective in the same order. Every collective here is the same
// three lines: lay out the caller's data in a collRun, let the builder of
// collsched.go append the schedule the communicator's CollTuning resolves
// (colltuning.go), and run it (collexec.go). The default policy selects
// the classic algorithms of early-2000s MPI libraries — binomial trees for
// broadcast and reduce, flat trees for gather and scatter, a ring for
// allgather and pairwise exchange for alltoall — so the simulated cost of
// a collective reflects its communication structure.

// Internal tags; user tags are non-negative, so the collective tags cannot
// collide with point-to-point traffic on the same communicator.
const (
	tagBarrier = -100 - iota
	tagBcast
	tagReduce
	tagGather
	tagScatter
	tagAllgather
	tagAlltoall
	tagScan
	tagAllreduce
	tagReduceScatter
	tagBcastHdr
	tagScatterHdr
	tagHier
)

// Op combines the bytes of in into inout; it is the reduction operator.
// The two slices always have equal length.
type Op func(inout, in []byte)

// Barrier blocks until all members have entered it (dissemination
// algorithm: ceil(log2 n) rounds of pairwise exchange).
func (c *Comm) Barrier() {
	x := c.newRun("Barrier", 0)
	x.barrier(x.self())
	x.run()
	x.release()
}

// Bcast broadcasts root's data to all members and returns the received
// slice (root returns data unchanged). The algorithm comes from the
// communicator's CollTuning: plain binomial by default, a segmented
// pipeline or the two-level broadcast when selected.
func (c *Comm) Bcast(root int, data []byte) []byte {
	c.checkRank("Bcast", root)
	x := c.newRun("Bcast", len(data))
	x.buf = data
	length := -1 // only the root knows it
	if c.rank == root {
		length = len(data)
	}
	x.bcast(x.self(), root, length)
	x.run()
	return done(x, x.buf)
}

// Reduce combines every member's data with op and returns the result on
// root (nil elsewhere). Combination runs up a binomial tree; op must be
// associative and commutative.
func (c *Comm) Reduce(root int, data []byte, op Op) []byte {
	c.checkRank("Reduce", root)
	x := c.newRun("Reduce", len(data))
	x.buf, x.op = append([]byte(nil), data...), op
	x.reduce(x.self(), root, len(data))
	x.run()
	if c.rank != root {
		x.buf = nil
	}
	return done(x, x.buf)
}

// Allreduce combines every member's data with op and returns the result
// on all members. The algorithm comes from the communicator's
// CollTuning: reduce-to-0-then-broadcast by default, recursive doubling,
// a bandwidth-optimal ring or the two-level algorithm when selected. All
// members must pass equal-length data.
func (c *Comm) Allreduce(data []byte, op Op) []byte {
	x := c.newRun("Allreduce", len(data))
	x.buf, x.op = append([]byte(nil), data...), op
	x.allreduce(x.self(), len(data))
	x.run()
	return done(x, x.buf)
}

// Gather collects every member's data on root, which receives the
// concatenation indexed by rank; other members return nil. Contributions
// may have different sizes (this therefore also covers MPI_Gatherv). The
// algorithm comes from the communicator's CollTuning: a flat fan into the
// root by default, a binomial combining tree or the two-level gather when
// selected (GatherAuto keys the choice on the local payload size, so it
// requires agreed sizes).
func (c *Comm) Gather(root int, data []byte) [][]byte {
	c.checkRank("Gather", root)
	x := c.newRun("Gather", len(data))
	x.buf = data
	x.gather(x.self(), root)
	x.run()
	return done(x, x.blocks)
}

// Scatter distributes parts[r] from root to each member r and returns the
// local part. Only root's parts argument is consulted; it must have one
// entry per member (different sizes allowed, covering MPI_Scatterv). The
// algorithm comes from the communicator's CollTuning: a flat fan out of
// the root by default, a binomial bundle tree when selected.
func (c *Comm) Scatter(root int, parts [][]byte) []byte {
	c.checkRank("Scatter", root)
	x := c.newRun("Scatter", 0)
	if c.rank == root {
		x.in, x.sizes = parts, c.partSizes("Scatter", parts)
	}
	x.scatter(x.self(), root)
	x.run()
	return done(x, x.buf)
}

// partSizes checks that a collective got one part per member and returns
// the part sizes.
func (c *Comm) partSizes(what string, parts [][]byte) []int {
	if len(parts) != c.Size() {
		panic(fmt.Sprintf("mpi: %s needs %d parts, got %d", what, c.Size(), len(parts)))
	}
	sizes := make([]int, len(parts))
	for r, p := range parts {
		sizes[r] = len(p)
	}
	return sizes
}

// Allgather collects every member's data on every member (ring algorithm:
// n-1 steps, each member forwards the newest block to its right
// neighbour).
func (c *Comm) Allgather(data []byte) [][]byte {
	x := c.newRun("Allgather", len(data))
	x.blocks = make([][]byte, c.Size())
	x.blocks[c.rank] = append([]byte(nil), data...)
	x.allgather(x.self(), len(data))
	x.run()
	return done(x, x.blocks)
}

// Alltoall delivers parts[r] to member r and returns the blocks received
// from every member, indexed by source rank (pairwise-exchange algorithm).
// parts must have one entry per member.
func (c *Comm) Alltoall(parts [][]byte) [][]byte {
	c.partSizes("Alltoall", parts)
	x := c.newRun("Alltoall", len(parts[c.rank]))
	x.in, x.blocks = parts, make([][]byte, c.Size())
	x.blocks[c.rank] = append([]byte(nil), parts[c.rank]...)
	x.alltoall(x.self(), x.mine)
	x.run()
	return done(x, x.blocks)
}

// Scan computes the inclusive prefix reduction: member r returns
// op(data_0, ..., data_r) (linear-chain algorithm).
func (c *Comm) Scan(data []byte, op Op) []byte {
	x := c.newRun("Scan", len(data))
	x.buf, x.op = append([]byte(nil), data...), op
	x.scan(x.self(), len(data), false)
	x.run()
	return done(x, x.buf)
}

// Exscan computes the exclusive prefix reduction: member r returns
// op(data_0, ..., data_(r-1)); member 0 returns nil (MPI_Exscan).
func (c *Comm) Exscan(data []byte, op Op) []byte {
	x := c.newRun("Exscan", len(data))
	x.buf, x.op = data, op
	x.scan(x.self(), len(data), true)
	x.run()
	return done(x, x.aux)
}

// ReduceScatter combines every member's parts element-wise with op and
// scatters the result: member r returns the reduction of everyone's
// parts[r] (MPI_Reduce_scatter). parts must have one entry per member,
// with sizes agreed across members — the sizes are validated up front so
// a disagreement panics on every rank with a clear message. The algorithm
// comes from the communicator's CollTuning: reduce-then-scatter through
// rank 0 by default, pairwise exchange or the two-level algorithm when
// selected.
func (c *Comm) ReduceScatter(parts [][]byte, op Op) []byte {
	sizes := c.partSizes("ReduceScatter", parts)
	x := c.newRun("ReduceScatter", 0)
	x.in, x.sizes, x.op = parts, sizes, op
	x.reduceScatter(x.self())
	x.run()
	return done(x, x.buf)
}
