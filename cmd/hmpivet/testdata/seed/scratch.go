// Seeded violations for the -json golden test: one groupfree leak, one
// computed tag, and one runtimeclose leak.
package scratch

type Group struct{}

func (g *Group) Rank() int { return 0 }

type Comm struct{}

func (c *Comm) Rank() int                       { return 0 }
func (c *Comm) Send(dst, tag int, data []byte)  {}
func (c *Comm) Recv(src, tag int) ([]byte, int) { return nil, 0 }

type Process struct{}

func (h *Process) GroupCreate(m any) (*Group, error) { return nil, nil }

func leak(h *Process) {
	g, _ := h.GroupCreate(nil)
	_ = g.Rank()
}

func exchange(c *Comm) {
	if c.Rank() == 0 {
		_, _ = c.Recv(1, c.Rank()+4)
		c.Send(1, 4, nil)
	} else if c.Rank() == 1 {
		c.Send(0, 4, nil)
		_, _ = c.Recv(0, 4)
	}
}

func runtimeLeak(cfg hmpi.Config) error {
	rt, err := hmpi.New(cfg)
	if err != nil {
		return err
	}
	return rt.Run(nil)
}
