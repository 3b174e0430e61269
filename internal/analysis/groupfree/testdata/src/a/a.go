// Fixture for the groupfree analyzer. It only needs to parse: the types
// mimic the hmpi API surface syntactically.
package a

type Group struct{}

func (g *Group) Rank() int { return 0 }

type Process struct{}

func (h *Process) GroupCreate(m any, args ...any) (*Group, error)      { return nil, nil }
func (h *Process) GroupCreateChild(m any, args ...any) (*Group, error) { return nil, nil }
func (h *Process) GroupRecreate(g *Group, m any, args ...any) (*Group, error) {
	return nil, nil
}
func (h *Process) GroupFree(g *Group) error { return nil }
func (h *Process) IsMember(g *Group) bool   { return false }
func (h *Process) work(g *Group) error      { return nil }
func bad() bool                             { return false }
func sink(g *Group)                         {}

func neverFreed(h *Process) error {
	g, err := h.GroupCreate(nil) // want "never freed"
	if err != nil {
		return err
	}
	_ = g.Rank()
	return nil
}

func childNeverFreed(h *Process) {
	g, _ := h.GroupCreateChild(nil) // want "never freed"
	_ = g.Rank()
}

func freedAtEnd(h *Process) error {
	g, err := h.GroupCreate(nil)
	if err != nil {
		return err
	}
	_ = g.Rank()
	return h.GroupFree(g)
}

func freedByDefer(h *Process) error {
	g, err := h.GroupCreate(nil)
	if err != nil {
		return err
	}
	defer h.GroupFree(g)
	_ = g.Rank()
	return nil
}

func freedInClosure(h *Process) error {
	g, err := h.GroupCreate(nil)
	if err != nil {
		return err
	}
	defer func() { _ = h.GroupFree(g) }()
	_ = g.Rank()
	return nil
}

func earlyReturnLeak(h *Process) error {
	g, err := h.GroupCreate(nil)
	if err != nil {
		return err
	}
	if bad() {
		return nil // want "return without GroupFree"
	}
	return h.GroupFree(g)
}

func memberGuardOK(h *Process) error {
	g, err := h.GroupCreate(nil)
	if err != nil {
		return err
	}
	if !h.IsMember(g) {
		return nil // guarded by the group variable: g is nil here
	}
	return h.GroupFree(g)
}

func escapesOK(h *Process) *Group {
	g, _ := h.GroupCreate(nil)
	return g // ownership moves to the caller
}

// Regression: the syntactic analyzer trusted any call to free the handle;
// the program view knows sink only reads it, so the obligation stays.
func passedToInertHelper(h *Process) {
	g, _ := h.GroupCreate(nil) // want "never freed"
	sink(g)
}

func freedByHelper(h *Process) {
	g, _ := h.GroupCreate(nil)
	release(h, g) // helper reaches GroupFree: counts as the free
}

func freedByHelperChain(h *Process) {
	g, _ := h.GroupCreate(nil)
	releaseIndirect(h, g) // wrapper of a wrapper still converges
}

func storedByHelperOK(h *Process) {
	g, _ := h.GroupCreate(nil)
	keep(g) // helper retains the handle: ownership transfers
}

func ownedFromHelper(h *Process) error {
	g, err := mkGroup(h) // want "never freed"
	if err != nil {
		return err
	}
	_ = g.Rank()
	return nil
}

func ownedFromHelperFreed(h *Process) error {
	g, err := mkGroup(h)
	if err != nil {
		return err
	}
	return h.GroupFree(g)
}

func unknownCalleeOK(h *Process, take func(g *Group)) {
	g, _ := h.GroupCreate(nil)
	take(g) // unresolvable callee: trusted to manage the handle
}

func recreateConsumesOld(h *Process) error {
	g, err := h.GroupCreate(nil)
	if err != nil {
		return err
	}
	ng, err := h.GroupRecreate(g, nil)
	if err != nil {
		return err
	}
	return h.GroupFree(ng)
}

// A helper that hands its parameter to GroupRecreate releases it: the
// runtime dissolves the old group while building the successor.
func rebuild(h *Process, g *Group) (*Group, error) {
	return h.GroupRecreate(g, nil)
}

func recreatedByHelper(h *Process) error {
	g, err := h.GroupCreate(nil)
	if err != nil {
		return err
	}
	ng, err := rebuild(h, g)
	if err != nil {
		return err
	}
	return h.GroupFree(ng)
}
