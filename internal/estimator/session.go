// Search support for the group-selection engine: per-search evaluation
// arenas (Session), a compute-only lower bound for branch-and-bound, the
// classes of interchangeable processes the exhaustive search enumerates
// orbits by, and a canonical candidate key exploiting machine symmetry for
// the heuristics' value memo. Together they make the inner loop of
// HMPI_Group_create — scoring one candidate arrangement — allocation-free,
// and let the search score one candidate per symmetry class.

package estimator

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/hnoc"
	"repro/internal/sched"
)

// Session is a per-search evaluation context: it owns the reusable state
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

// Session returns a fresh evaluation context for one search.
func (e *Estimator) Session() *Session {
	s := &Session{e: e, share: make([]int, e.linkCost.n)}
	s.res = sched.Resources{
		Speed: func(p int) float64 {
			r := s.cand[p]
			return e.speeds[r] / float64(s.share[e.placement[r]])
		},
		Link: func(src, dst int) sched.Link {
			return e.linkCost.at(e.placement[s.cand[src]], e.placement[s.cand[dst]])
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

// ProcessClasses returns, per rank of avail, a class label such that
// exchanging two ranks of one class in any candidate leaves Timeof and
// LowerBound bit-identical: the group-selection engine's
// mapper.Problem.Classes. Two ranks share a class when their speeds are
// equal and either they run on the same machine — the exchange changes
// nothing the replay reads — or their machines are interchangeable (one
// class of classifyMachines) and each hosts no other rank of avail — the
// exchange is then a relabelling of the two machines, which the link
// classes allow, and both machines' share counts are 1 in any candidate.
// Ranks on interchangeable machines that each host several processes stay
// apart: exploiting that symmetry would need whole-machine relabellings.
// Safe for concurrent use.
func (e *Estimator) ProcessClasses(avail []int) []int {
	hosted := make([]int, e.linkCost.n) // machine -> ranks of avail on it
	for _, r := range avail {
		hosted[e.placement[r]]++
	}
	class := make([]int, len(avail))
	for i, r := range avail {
		class[i] = i
		m := e.placement[r]
		for j, q := range avail[:i] {
			n := e.placement[q]
			alone := hosted[m] == 1 && hosted[n] == 1 && e.machClass[m] == e.machClass[n]
			if e.speeds[r] == e.speeds[q] && (m == n || alone) {
				class[i] = class[j]
				break
			}
		}
	}
	return class
}

// linkTable holds a LinkView's ModelLink costs, as the replay reads them,
// for every ordered machine pair: machine i to j at cost[i*n+j].
type linkTable struct {
	n    int
	cost []sched.Link
}

func tabulate(v hnoc.LinkView) linkTable {
	t := linkTable{v.Size(), make([]sched.Link, v.Size()*v.Size())}
	for k := range t.cost {
		ls := v.ModelLink(k/t.n, k%t.n)
		t.cost[k] = sched.Link{Latency: ls.Latency, Bandwidth: ls.Bandwidth, Overhead: ls.Overhead}
	}
	return t
}

func (t linkTable) at(i, j int) sched.Link { return t.cost[i*t.n+j] }

// interchangeable reports whether swapping machines a and b changes no
// link cost the estimator can observe: equal self links, an exchange-
// symmetric pair link, and equal links to and from every third machine.
// The relation is transitive (any two members of a class see identical
// links everywhere), so checking a candidate member against one class
// representative suffices.
func interchangeable(t linkTable, a, b int) bool {
	if t.at(a, a) != t.at(b, b) || t.at(a, b) != t.at(b, a) {
		return false
	}
	for m := range t.n {
		if m != a && m != b && (t.at(a, m) != t.at(b, m) || t.at(m, a) != t.at(m, b)) {
			return false
		}
	}
	return true
}

// classifyMachines partitions the cluster's machines into
// interchangeability classes. Machine speeds are deliberately ignored:
// the estimator reads speed per process (from HMPI_Recon), and the
// canonical key carries it separately per position.
func classifyMachines(t linkTable) []int {
	class := make([]int, t.n)
	var reps []int // one representative machine per class
	for m := range t.n {
		class[m] = -1
		for ci, r := range reps {
			if interchangeable(t, r, m) {
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
