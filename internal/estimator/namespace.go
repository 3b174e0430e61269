// Identity of a cost model and of a selection problem, computable before
// an Estimator — and so a task graph — exists.
//
// AppendCanonicalKey's contract — equal keys imply bit-identical Timeof —
// holds only within one cost model: the key encodes the candidate's shape
// (machine classes, co-location, per-process speeds) but not the link
// costs behind the class indices, nor the task graph being replayed. A
// mapper.SelectionCache therefore qualifies every value with a namespace
// that pins everything Timeof reads besides the candidate itself:
//
//   - the model instance (pmdl.Instance.Digest: source and arguments, of
//     which the task graph and the process count are pure functions);
//   - the full all-pairs link-cost matrix, via a hnoc.LinkView so
//     degradation state is folded in (a degraded link is a different cost
//     model); a solve prices its namespace and its estimator through one
//     view, so a concurrent DegradeLink cannot split them.
//
// Per-process speeds and placement are deliberately absent: the canonical
// key already carries the speed of every selected process per position,
// and the class + first-appearance-index encoding makes the replay
// consume identical link costs for any placement that yields equal keys.
package estimator

import (
	"crypto/sha256"
	"encoding/binary"
	"math"

	"repro/internal/hnoc"
	"repro/internal/pmdl"
)

// AppendNamespace appends a compact digest of the cost model — the model
// instance and the view's link costs — to dst. Estimators of equal
// namespaces agree on Timeof for key-equal candidates; a different
// instance or different link costs (including degradation) give a
// different namespace. Safe for concurrent use.
func AppendNamespace(dst []byte, inst *pmdl.Instance, links hnoc.LinkView) []byte {
	n := links.Size()
	b := make([]byte, 0, 8192) // on the stack; sixteen machines fit
	b = append(b, inst.Digest[:]...)
	b = binary.LittleEndian.AppendUint64(b, uint64(n))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			ls := links.ModelLink(i, j)
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(ls.Latency))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(ls.Bandwidth))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(ls.Overhead))
		}
	}
	sum := sha256.Sum256(b)
	return append(dst, sum[:16]...)
}

// AppendMemoKey appends a digest pinning everything Timeof depends on
// besides the candidate: the namespace ns plus the world placement and
// the per-process speed estimates, which the namespace deliberately omits
// (the canonical key carries them per candidate, but a whole-solve memo
// has no candidate yet). Estimators of equal memo keys agree on Timeof for
// every candidate, the contract mapper.Options.MemoKey requires.
func AppendMemoKey(dst, ns []byte, speeds []float64, placement []int) []byte {
	b := append(make([]byte, 0, 1024), ns...) // on the stack
	b = binary.LittleEndian.AppendUint64(b, uint64(len(placement)))
	for r, m := range placement {
		b = binary.LittleEndian.AppendUint64(b, uint64(m))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(speeds[r]))
	}
	sum := sha256.Sum256(b)
	return append(dst, sum[:16]...)
}

// AppendNamespace is AppendNamespace of the estimator's instance and
// links.
func (e *Estimator) AppendNamespace(dst []byte) []byte {
	return AppendNamespace(dst, e.inst, e.links)
}

// AppendMemoKey is AppendMemoKey of the estimator's namespace, speeds and
// placement.
func (e *Estimator) AppendMemoKey(dst []byte) []byte {
	return AppendMemoKey(dst, e.AppendNamespace(nil), e.speeds, e.placement)
}
