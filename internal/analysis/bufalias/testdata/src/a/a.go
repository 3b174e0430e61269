// Fixture for the bufalias analyzer. It only needs to parse: the types
// mimic the internal/mpi buffer-pool surface syntactically.
package a

type poolBuf struct{ b []byte }

func getBuf(n int) *poolBuf  { return &poolBuf{b: make([]byte, n)} }
func (pb *poolBuf) release() {}

type envelope struct{ data []byte }

func putEnv(e *envelope)          {}
func releaseEnvelope(e *envelope) {}

type run struct {
	buf    []byte
	frames [][]byte
}

var stash []byte

// The in-place consumers: each recycles its envelope, so the payload must
// not outlive the call.
func (x *run) retainsPayload(e *envelope) {
	x.buf = e.data // want "retains the pooled payload of e"
	releaseEnvelope(e)
}

func retainsViaAlias(e *envelope) {
	p := e.data
	stash = p // want "retains the pooled payload of e"
	e.data = nil
	releaseEnvelope(e)
}

func (x *run) copiesOK(e *envelope) {
	copy(x.buf, e.data)
	releaseEnvelope(e)
}

func (x *run) appendSpreadOK(e *envelope) {
	x.buf = append(x.buf, e.data...)
	putEnv(e)
}

func (x *run) appendValueBad(e *envelope) {
	x.frames = append(x.frames, e.data) // want "appends the pooled payload of e"
	releaseEnvelope(e)
}

func useAfterRelease() []byte {
	pb := getBuf(8)
	pb.release()
	return pb.b // want "use of pb after release"
}

func releaseAtEndOK() int {
	pb := getBuf(8)
	n := len(pb.b)
	pb.release()
	return n
}

func deferReleaseOK() []byte {
	pb := getBuf(8)
	defer pb.release()
	out := make([]byte, len(pb.b))
	copy(out, pb.b)
	return out
}

func rebindOK() []byte {
	pb := getBuf(8)
	pb.release()
	pb = getBuf(16)
	return pb.b
}

func doubleRelease() {
	pb := getBuf(8)
	pb.release()
	pb.release() // want "use of pb after release"
}

func envelopeAfterPut(e *envelope) []byte {
	putEnv(e)
	return e.data // want "use of e after release"
}

func branchReleaseOK(e *envelope, drop bool) []byte {
	// The release happens only on the drop path; the fall-through use
	// is fine.
	if drop {
		releaseEnvelope(e)
		return nil
	}
	return e.data
}
