// Seeded violations for the -json golden test: one computed tag, one
// communicating Recon benchmark, one pooled buffer used after its
// release, and one computed tag suppressed by a justified directive.
package scratch

type Comm struct{}

func (c *Comm) Rank() int                       { return 0 }
func (c *Comm) Barrier()                        {}
func (c *Comm) Send(dst, tag int, data []byte)  {}
func (c *Comm) Recv(src, tag int) ([]byte, int) { return nil, 0 }

func exchange(c *Comm) {
	if c.Rank() == 0 {
		_, _ = c.Recv(1, c.Rank()+4)
		c.Send(1, 4, nil)
	} else if c.Rank() == 1 {
		c.Send(0, 4, nil)
		_, _ = c.Recv(0, 4)
	}
}

type Proc struct{}

func (p *Proc) CommWorld() *Comm { return nil }

type BenchmarkFunc struct {
	Units float64
	Run   func(p *Proc) error
}

type Process struct{}

func (h *Process) Recon(bench BenchmarkFunc) error { return nil }

func recon(h *Process) error {
	return h.Recon(BenchmarkFunc{
		Units: 1,
		Run: func(p *Proc) error {
			p.CommWorld().Barrier()
			return nil
		},
	})
}

type poolBuf struct{ b []byte }

func getBuf(n int) *poolBuf  { return &poolBuf{b: make([]byte, n)} }
func (pb *poolBuf) release() {}

func useAfterRelease() []byte {
	pb := getBuf(8)
	pb.release()
	return pb.b
}

func tagOf(step int) int { return step + 4 }

func suppressed(c *Comm) {
	c.Send(1, tagOf(0), nil) //hmpivet:ignore tagconst -- tagOf is a pure function of the step
}
