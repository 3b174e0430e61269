// Fixture for the reqwait analyzer. It only needs to parse: the types
// mimic the mpi API surface syntactically.
package a

type Request struct{}

func (r *Request) Wait() ([]byte, error) { return nil, nil }
func (r *Request) Test() bool            { return false }

type Comm struct{}

func (c *Comm) Isend(dst, tag int, data []byte) *Request      { return nil }
func (c *Comm) IsendOwned(dst, tag int, data []byte) *Request { return nil }
func (c *Comm) Irecv(src, tag int) *Request                   { return nil }
func (c *Comm) Send(dst, tag int, data []byte)                {}

func WaitAll(reqs ...*Request) {}
func WaitAny(reqs ...*Request) (int, []byte, error) {
	return 0, nil, nil
}

func bad() bool { return false }

// --- True positives. ---

// Fixtures only need to parse, so the leaked requests below can simply
// go unused.
func neverWaited(c *Comm) {
	r := c.Isend(1, 0, nil) // want "never completed"
}

func recvNeverWaited(c *Comm) []byte {
	r := c.Irecv(1, 0) // want "never completed"
	return nil
}

func earlyReturnLeak(c *Comm) error {
	r := c.Irecv(1, 0)
	if bad() {
		return nil // want "return without Wait"
	}
	_, _ = r.Wait()
	return nil
}

func helperOnlyReads(c *Comm) {
	r := c.Irecv(1, 0) // want "never completed"
	peek(r)
}

// peek reads the request without completing it; the obligation stays
// with the caller.
func peek(r *Request) {}

func viaStarterHelper(c *Comm) {
	r := startRecv(c) // want "never completed"
}

// startRecv returns a request it started: the caller inherits the
// completion obligation.
func startRecv(c *Comm) *Request {
	return c.Irecv(1, 0)
}

// --- Near misses: none of these may be reported. ---

func waitedAtEnd(c *Comm) []byte {
	r := c.Irecv(1, 0)
	data, _ := r.Wait()
	return data
}

func testedInLoop(c *Comm) {
	r := c.Isend(1, 0, nil)
	for !r.Test() {
	}
}

func waitAllCompletes(c *Comm) {
	a := c.Isend(1, 0, nil)
	b := c.Irecv(1, 0)
	WaitAll(a, b)
}

func waitAllSliceLiteral(c *Comm) {
	a := c.Isend(1, 0, nil)
	b := c.Irecv(1, 0)
	WaitAll([]*Request{a, b}...)
}

func waitAnyCompletes(c *Comm) {
	r := c.Irecv(1, 0)
	_, _, _ = WaitAny(r)
}

// Fire-and-forget: a start whose result is never bound is the accepted
// one-way-push idiom, not a finding.
func fireAndForget(c *Comm) {
	c.Isend(1, 0, nil)
	_ = c.IsendOwned(1, 0, nil)
}

// Appending to a slice escapes the request; the WaitAll happens on the
// slice elsewhere.
func appendEscapes(c *Comm, reqs []*Request) []*Request {
	r := c.Isend(1, 0, nil)
	reqs = append(reqs, r)
	return reqs
}

// Returning the request hands ownership to the caller.
func returned(c *Comm) *Request {
	r := c.Irecv(1, 0)
	return r
}

// An early return guarded by the request variable itself is the
// nil-check idiom.
func guardedReturn(c *Comm) {
	r := c.Irecv(1, 0)
	if r == nil {
		return
	}
	_, _ = r.Wait()
}

// A helper whose summary reaches Wait counts as the completion.
func viaFinisher(c *Comm) {
	r := c.Irecv(1, 0)
	finish(r)
}

func finish(r *Request) {
	_, _ = r.Wait()
}

// A helper that passes the request on to WaitAll completes it too
// (summaries iterate to a fixpoint).
func viaFinisherChain(c *Comm) {
	r := c.Irecv(1, 0)
	finishAll(r)
}

func finishAll(r *Request) {
	WaitAll(r)
}

// Storing into a struct escapes the request.
type holder struct{ r *Request }

func stored(c *Comm, h *holder) {
	r := c.Irecv(1, 0)
	h.r = r
}
