// Fixture for the reconpure analyzer; parse-only mimic of the hmpi and
// mpi API surface.
package a

type Proc struct{}

func (p *Proc) Compute(units float64) {}
func (p *Proc) CommWorld() *Comm      { return nil }

type Comm struct{}

func (c *Comm) Barrier()                        {}
func (c *Comm) Send(dst, tag int, data []byte)  {}
func (c *Comm) Isend(dst, tag int, data []byte) {}

type BenchmarkFunc struct {
	Units float64
	Run   func(p *Proc) error
}

type Process struct{}

func (h *Process) Recon(bench BenchmarkFunc) error { return nil }

func DefaultBenchmark(units float64) BenchmarkFunc { return BenchmarkFunc{} }

func pureInline(h *Process) error {
	return h.Recon(BenchmarkFunc{
		Units: 1,
		Run: func(p *Proc) error {
			p.Compute(100)
			return nil
		},
	})
}

func defaultOK(h *Process) error {
	return h.Recon(DefaultBenchmark(1))
}

func barrierInline(h *Process) error {
	return h.Recon(BenchmarkFunc{
		Units: 1,
		Run: func(p *Proc) error {
			p.CommWorld().Barrier() // want "communication-free" "communication-free"
			return nil
		},
	})
}

func isendInline(h *Process, c *Comm) error {
	return h.Recon(BenchmarkFunc{
		Units: 1,
		Run: func(p *Proc) error {
			c.Isend(1, 0, nil) // want "communication-free"
			return nil
		},
	})
}

func sendViaLocal(h *Process) error {
	bench := BenchmarkFunc{
		Units: 1,
		Run: func(p *Proc) error {
			c := p.CommWorld() // want "communication-free"
			c.Send(1, 0, nil)  // want "communication-free"
			return nil
		},
	}
	return h.Recon(bench)
}

func commOutsideOK(h *Process, c *Comm) error {
	c.Barrier() // communication outside the benchmark is fine
	return h.Recon(BenchmarkFunc{
		Units: 1,
		Run: func(p *Proc) error {
			p.Compute(1)
			return nil
		},
	})
}
