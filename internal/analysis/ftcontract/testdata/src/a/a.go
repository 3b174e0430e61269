// Fixture for the ftcontract analyzer; parse-only mimic of the hmpi and
// mpi fault-tolerance surface.
package a

import "errors"

type Comm struct{}

func (c *Comm) Barrier()                        {}
func (c *Comm) Send(dst, tag int, data []byte)  {}
func (c *Comm) Isend(dst, tag int, data []byte) {}
func (c *Comm) Shrink() *Comm                   { return nil }
func (c *Comm) AgreeFailed() []int              { return nil }

type ProcessFailedError struct{ Rank int }

func (e *ProcessFailedError) Error() string { return "process failed" }

func IsFailureError(err error) bool { return false }

func compute() error { return nil }

func recoverThenTalk(c *Comm) error {
	if err := compute(); IsFailureError(err) {
		nc := c.Shrink()
		nc.Barrier() // fine: after recovery
		return nil
	}
	return nil
}

func talkBeforeRecovery(c *Comm) error {
	if err := compute(); IsFailureError(err) {
		c.Barrier() // want "before recovery"
		c.Shrink()
		return nil
	}
	return nil
}

func postBeforeRecovery(c *Comm) error {
	if err := compute(); IsFailureError(err) {
		c.Isend(1, 0, nil) // want "before recovery"
		c.Shrink()
		return nil
	}
	return nil
}

func detectAndIgnore(c *Comm) error {
	err := compute()
	if IsFailureError(err) { // want "neither recovers"
		_ = err
	}
	c.Barrier()
	return nil
}

func detectAndReturn(c *Comm) error {
	if err := compute(); IsFailureError(err) {
		return err // fine: leaves the computation
	}
	return nil
}

func errorsAsDetection(c *Comm) error {
	err := compute()
	var pf *ProcessFailedError
	if errors.As(err, &pf) {
		c.Send(0, 1, nil) // want "before recovery"
		return err
	}
	return nil
}

func agreeCounts(c *Comm) error {
	if err := compute(); IsFailureError(err) {
		failed := c.AgreeFailed()
		_ = failed
		c.Barrier() // fine: agreement ran first
		return nil
	}
	return nil
}

func unrelatedIfOK(c *Comm) error {
	if err := compute(); err != nil {
		return err // not a failure check: ordinary error handling
	}
	c.Barrier()
	return nil
}
