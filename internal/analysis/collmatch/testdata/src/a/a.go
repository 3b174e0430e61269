// Fixture for the collmatch analyzer. It only needs to parse: the types
// mimic the HMPI Comm surface syntactically.
package a

type Comm struct{}

func (c *Comm) Rank() int                          { return 0 }
func (c *Comm) Size() int                          { return 0 }
func (c *Comm) Barrier()                           {}
func (c *Comm) Bcast(root int, data []byte) []byte { return nil }
func (c *Comm) Gather(root int, data []byte) [][]byte {
	return nil
}
func (c *Comm) Allreduce(data []byte, op int) []byte { return nil }
func (c *Comm) Exscan(data []byte, op int) []byte    { return nil }
func (c *Comm) Send(dst, tag int, data []byte)       {}
func (c *Comm) Recv(src, tag int) ([]byte, int)      { return nil, 0 }

func rootOnlyBcast(c *Comm) {
	if c.Rank() == 0 {
		c.Bcast(0, nil) // want "guarded by a rank-dependent condition"
	}
}

func rootSkipsExscan(c *Comm) {
	if c.Rank() > 0 {
		_ = c.Exscan(nil, 0) // want "guarded by a rank-dependent condition"
	}
}

func taintedThroughLocal(c *Comm) {
	r := c.Rank()
	isRoot := r == 0
	if isRoot {
		c.Barrier() // want "guarded by a rank-dependent condition"
	}
}

func sizeGuardOK(c *Comm) {
	// Size is identical on every member: not a rank-dependent guard.
	if c.Size() > 4 {
		c.Barrier()
	}
}

func rankGuardedP2POK(c *Comm) {
	// Point-to-point under a rank guard is the normal SPMD pattern.
	if c.Rank() == 0 {
		c.Send(1, 7, nil)
	} else {
		_, _ = c.Recv(0, 7)
	}
}

func balancedGatherOK(c *Comm) {
	// Both paths enter the same collective with different arguments:
	// every member still participates.
	if c.Rank() == 0 {
		_ = c.Gather(0, nil)
	} else {
		_ = c.Gather(0, []byte{1})
	}
}

func doReduce(c *Comm) {
	_ = c.Allreduce(nil, 0)
}

func helperHidesCollective(c *Comm) {
	if c.Rank() == 0 {
		doReduce(c) // want "guarded by a rank-dependent condition"
	}
}

func balancedThroughHelperOK(c *Comm) {
	if c.Rank() == 0 {
		doReduce(c)
	} else {
		_ = c.Allreduce(nil, 0)
	}
}

func syncAll(c *Comm) {
	c.Barrier()
	_ = c.Gather(0, nil)
	_ = c.Allreduce(nil, 0)
}

func helperHidesSeveral(c *Comm) {
	// One call standing for several collectives is one finding, named
	// after the first of them in name order.
	if c.Rank() == 0 {
		syncAll(c) // want "collective Allreduce is guarded"
	}
}
