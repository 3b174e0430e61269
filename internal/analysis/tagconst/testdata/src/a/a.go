// Fixture for the tagconst analyzer; parse-only mimic of the mpi
// point-to-point surface.
package a

type Status struct{}

type Comm struct {
	rank int
}

func (c *Comm) Send(dst, tag int, data []byte)     {}
func (c *Comm) Recv(src, tag int) ([]byte, Status) { return nil, Status{} }
func (c *Comm) Sendrecv(dst, sTag int, data []byte, src, rTag int) ([]byte, Status) {
	return nil, Status{}
}

const (
	tagHalo = 7
	tagAck  = 8
)

func freshTag() int { return 0 }

func constTagsOK(c *Comm) {
	c.Send(1, tagHalo, nil)
	c.Recv(0, tagHalo)
}

func literalTagsOK(c *Comm) {
	c.Send(1, 3, nil)
	c.Recv(0, 3)
}

func computedTagBad(c *Comm) {
	c.Send(1, freshTag(), nil) // want "computed by a function call"
}

func computedRecvTagBad(c *Comm) {
	_, _ = c.Recv(0, freshTag()+1) // want "computed by a function call"
}

func sendrecvOK(c *Comm) {
	c.Sendrecv(1, tagHalo, nil, 0, tagAck)
}

func sendrecvComputedBad(c *Comm) {
	c.Sendrecv(1, tagHalo, nil, 0, freshTag()) // want "computed by a function call"
}

func separateBlocksOK(c *Comm) {
	if c.rank == 0 {
		c.Send(1, tagHalo, nil)
	} else {
		c.Recv(0, tagHalo)
	}
}

func variableTagOK(c *Comm, t int) {
	c.Send(1, t, nil)
	c.Recv(0, t)
}

// pool mimics a worker-pool job queue whose enqueue/dequeue methods reuse
// the p2p names with different signatures. The analyzer must recognise
// from the argument count that these are not mpi operations.
type pool struct{}

func (p *pool) Send(worker, job int)    {}
func (p *pool) Recv() int               { return 0 }
func (p *pool) Probe(worker, tries int) {} // 2 args like mpi Probe — tag position is a plain variable

func (p *pool) next() int { return 0 }

func workerPoolNotP2P(p *pool, job, tries int) {
	// Send here has 2 args (mpi Send has 3): its second argument is a job
	// id, not a tag, so p.next() is not a computed tag. None of these are
	// messaging calls.
	p.Send(1, job)
	p.Send(2, p.next())
	_ = p.Recv()
	p.Probe(1, tries)
}
