// Search support for the group-selection engine: per-worker evaluation
// arenas (Session), a compute-only lower bound for branch-and-bound, and a
// canonical candidate key exploiting machine symmetry. Together they make
// the inner loop of HMPI_Group_create — scoring one candidate arrangement —
// allocation-free, safe to run from many goroutines, and skippable when a
// symmetric candidate has already been scored.

package estimator

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/hnoc"
	"repro/internal/sched"
)

// Session is a per-worker evaluation context: it owns the reusable state
// of one candidate replay (machine share counts and the scheduler's
// scratch), so Timeof allocates nothing after the first call. A Session
// must be used by one goroutine at a time; the parent Estimator is
// read-only after New, so any number of Sessions may evaluate concurrently.
type Session struct {
	e       *Estimator
	cand    []int // candidate under evaluation, set by Timeof
	share   []int // machine index -> processes the candidate puts there
	scratch sched.Scratch
	res     sched.Resources
}

// Session returns a fresh evaluation context for one search worker.
func (e *Estimator) Session() *Session {
	s := &Session{e: e, share: make([]int, e.cluster.Size())}
	s.res = sched.Resources{
		Speed: func(p int) float64 {
			r := s.cand[p]
			return e.speeds[r] / float64(s.share[e.placement[r]])
		},
		Link: func(src, dst int) sched.Link {
			ls := e.cluster.ModelLink(e.placement[s.cand[src]], e.placement[s.cand[dst]])
			return sched.Link{Latency: ls.Latency, Bandwidth: ls.Bandwidth, Overhead: ls.Overhead}
		},
		SerialiseNIC: true,
	}
	return s
}

// Timeof is the one candidate evaluator — (*Estimator).Timeof runs it in a
// session of its own — replaying the task graph against the candidate's
// resources with no allocation per candidate.
func (s *Session) Timeof(candidate []int) float64 {
	e := s.e
	if len(candidate) != e.inst.NumProcs {
		panic(fmt.Sprintf("estimator: candidate has %d entries, want %d", len(candidate), e.inst.NumProcs))
	}
	for _, r := range candidate {
		s.share[e.placement[r]] = 0
	}
	for _, r := range candidate {
		s.share[e.placement[r]]++
	}
	s.cand = candidate
	return sched.MakespanInto(&s.scratch, e.dag, e.inst.NumProcs, s.res)
}

// LowerBound returns a compute-only lower bound on Timeof over every
// completion of a partial candidate: cand[i] is meaningful where
// assigned[i]; the remaining abstract processors may still receive any
// process. It is sound because each abstract processor's compute tasks
// serialise on it at an effective speed no greater than its process's full
// speed (machine sharing and communication only add time), and an
// unassigned processor can at best receive the fastest process of the
// network. Read-only on the Estimator: safe for concurrent use.
func (e *Estimator) LowerBound(cand []int, assigned []bool) float64 {
	lb := 0.0
	for i, ok := range assigned {
		s := e.maxSpeed
		if ok {
			s = e.speeds[cand[i]]
		}
		if t := e.compBusy[i] / s; t > lb {
			lb = t
		}
	}
	return lb
}

// AppendCanonicalKey appends a canonical key of the candidate to dst and
// returns the extended slice. Two candidates with equal keys have
// bit-identical Timeof values, so a search may score one and reuse the
// result for the other.
//
// The key encodes, per abstract processor: the interchangeability class of
// the machine its process runs on, the machine's first-appearance index
// within that class (so co-location — and hence speed sharing — is
// preserved), and the process's estimated speed. Candidates that differ
// only by permuting interchangeable machines (Paper9's six identical
// workstations, the homogeneous test clusters) therefore collapse onto one
// key: the relabelling is a cost-model automorphism, and the replay
// consumes the exact same sequence of speed and link values.
//
// Allocation-free for candidates of up to 32 distinct machines when dst
// has capacity. Safe for concurrent use.
func (e *Estimator) AppendCanonicalKey(dst []byte, cand []int) []byte {
	var seenBuf [32]int
	seen := seenBuf[:0]
	if len(cand) > len(seenBuf) {
		seen = make([]int, 0, len(cand))
	}
	for _, r := range cand {
		m := e.placement[r]
		cls := e.machClass[m]
		local := 0
		found := false
		for _, s := range seen {
			if s == m {
				found = true
				break
			}
			if e.machClass[s] == cls {
				local++
			}
		}
		if !found {
			seen = append(seen, m)
		}
		dst = binary.AppendUvarint(dst, uint64(cls))
		dst = binary.AppendUvarint(dst, uint64(local))
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(e.speeds[r]))
	}
	return dst
}

// sameCost compares the fields of a link that Timeof consumes.
func sameCost(a, b hnoc.LinkSpec) bool {
	return a.Latency == b.Latency && a.Bandwidth == b.Bandwidth && a.Overhead == b.Overhead
}

// interchangeable reports whether swapping machines a and b changes no
// link cost the estimator can observe: equal self links, an exchange-
// symmetric pair link, and equal links to and from every third machine.
// The relation is transitive (any two members of a class see identical
// links everywhere), so checking a candidate member against one class
// representative suffices.
func interchangeable(c *hnoc.Cluster, a, b int) bool {
	if !sameCost(c.ModelLink(a, a), c.ModelLink(b, b)) || !sameCost(c.ModelLink(a, b), c.ModelLink(b, a)) {
		return false
	}
	for m := 0; m < c.Size(); m++ {
		if m == a || m == b {
			continue
		}
		if !sameCost(c.ModelLink(a, m), c.ModelLink(b, m)) || !sameCost(c.ModelLink(m, a), c.ModelLink(m, b)) {
			return false
		}
	}
	return true
}

// classifyMachines partitions the cluster's machines into
// interchangeability classes. Machine speeds are deliberately ignored:
// the estimator reads speed per process (from HMPI_Recon), and the
// canonical key carries it separately per position.
func classifyMachines(c *hnoc.Cluster) []int {
	n := c.Size()
	class := make([]int, n)
	var reps []int // one representative machine per class
	for m := 0; m < n; m++ {
		class[m] = -1
		for ci, r := range reps {
			if interchangeable(c, r, m) {
				class[m] = ci
				break
			}
		}
		if class[m] < 0 {
			class[m] = len(reps)
			reps = append(reps, m)
		}
	}
	return class
}
