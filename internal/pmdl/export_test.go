package pmdl

// What the external tests (package pmdl_test) reach of the lints' hooks,
// which the package keeps unexported.

type TraceNode = traceNode

func (inst *Instance) UnrollScheme() (*TraceNode, error) { return inst.unrollScheme() }
