package mpi

// Sequential replay of collective schedules: the third reader of the step
// lists of collsched.go. It builds every rank's list for one collective
// call and walks them all with link costs only — a clock and an interface
// per rank, one FIFO per ordered rank pair, no goroutines, no mailboxes, no
// payloads — charging each step what the blocking executor's primitive
// charges. The result is the call's makespan on that network and
// placement, bit for bit what a World running it would report; the
// estimator prices collectives with it. Along the way the replay proves
// the lists consistent: every receive finds a send of the same size at the
// head of its pair's FIFO, a send's payload comes from the buffer pool
// exactly when that receive consumes it in place, nothing stays unreceived,
// and no rank waits forever.

import (
	"fmt"

	"repro/internal/hnoc"
	"repro/internal/vclock"
)

// CollCall names one collective invocation: Coll is the lower-case method
// name ("bcast", "reducescatter", ...), Bytes the payload every rank
// passes (per part for scatter, reducescatter and alltoall), Root the
// root of the rooted collectives, Tuning the policy (nil: the default).
// Flat prices the call as the policy would resolve it on a communicator
// without a two-level structure — the flat side of a flat-versus-
// hierarchical comparison on one placement.
type CollCall struct {
	Coll   string
	Bytes  int
	Root   int
	Tuning *CollTuning
	Flat   bool
}

// plans builds every rank's schedule of the call on the placement (rank
// -> machine).
func (call CollCall) plans(place []int) ([]plan, error) {
	n := len(place)
	if call.Root < 0 || call.Root >= n {
		return nil, fmt.Errorf("mpi: replay: root %d out of range [0,%d)", call.Root, n)
	}
	t := call.Tuning
	if t == nil {
		t = &defaultCollTuning
	}
	var m *tiers // the placement's two-level structure, if it has one and the call wants it
	if !call.Flat && n >= 3 {
		if m = machineTiers(n, func(r int) int { return place[r] }); !m.viable {
			m = nil
		}
	}
	sizes := make([]int, n)
	for r := range sizes {
		sizes[r] = call.Bytes
	}
	plans := make([]plan, n)
	for r := range plans {
		p := &plans[r]
		*p = plan{t: t, rank: r, n: n, mine: call.Bytes, tiers: m}
		v := p.self()
		switch call.Coll {
		case "barrier":
			p.barrier(v)
		case "bcast":
			p.bcast(v, call.Root, call.Bytes)
		case "reduce":
			p.reduce(v, call.Root, call.Bytes)
		case "allreduce":
			p.allreduce(v, call.Bytes)
		case "gather":
			p.gather(v, call.Root)
		case "scatter":
			p.sizes = sizes
			p.scatter(v, call.Root)
		case "reducescatter":
			p.sizes = sizes
			p.reduceScatter(v)
		case "allgather":
			p.allgather(v, call.Bytes)
		case "alltoall":
			p.alltoall(v, call.Bytes)
		case "scan", "exscan":
			p.scan(v, call.Bytes, call.Coll == "exscan")
		default:
			return nil, fmt.Errorf("mpi: replay: unknown collective %q", call.Coll)
		}
	}
	return plans, nil
}

// Replay returns the simulated completion time of the call when rank r
// runs on machine place[r] and link(a, b) joins machines a and b — pass a
// cluster's Link for what a World on it would measure, its ModelLink for
// the cost model's view of a degraded network. An error means the
// schedules of the ranks do not fit together, which is a bug in a builder.
func Replay(link func(a, b int) hnoc.LinkSpec, place []int, call CollCall) (vclock.Time, error) {
	clocks, err := replayClocks(link, place, call)
	var makespan vclock.Time
	for _, t := range clocks {
		makespan = max(makespan, t)
	}
	return makespan, err
}

// replayClocks is Replay returning every rank's final clock.
func replayClocks(link func(a, b int) hnoc.LinkSpec, place []int, call CollCall) ([]vclock.Time, error) {
	plans, err := call.plans(place)
	if err != nil {
		return nil, err
	}
	return replayPlans(link, place, call.Coll, plans)
}

// replayPlans walks the given per-rank lists of one call of coll.
func replayPlans(link func(a, b int) hnoc.LinkSpec, place []int, coll string, plans []plan) ([]vclock.Time, error) {
	n := len(place)
	type flight struct {
		arrive vclock.Time
		bytes  int
		mode   payloadMode
	}
	type rankState struct {
		clock  vclock.Clock
		nic    vclock.NIC
		next   int
		posted vclock.Time // when the interface finishes the posted send
	}
	ranks := make([]rankState, n)
	fifo := make([][]flight, n*n) // fifo[src*n+dst]
	running := 0
	for r := range plans {
		if len(plans[r].steps) > 0 {
			running++
		}
	}
	for running > 0 {
		progressed := false
		for r := range ranks {
			st, steps := &ranks[r], plans[r].steps
			for st.next < len(steps) {
				s := &steps[st.next]
				if s.kind.isSend() {
					l := link(place[r], place[s.peer])
					st.clock.Advance(vclock.Time(l.Overhead))
					_, end := st.nic.Reserve(st.clock.Now(), vclock.Time(l.TransferTime(s.n)))
					fifo[r*n+s.peer] = append(fifo[r*n+s.peer], flight{end + vclock.Time(l.Latency), s.n, s.mode()})
					if s.kind == stPost {
						st.posted = end
					} else {
						st.clock.AbsorbAtLeast(end)
					}
				} else if s.kind == stWaitSends {
					st.clock.AbsorbAtLeast(st.posted)
				} else if s.kind.isRecv() {
					q := fifo[s.peer*n+r]
					if len(q) == 0 {
						break // blocked until the peer gets there
					}
					if q[0].bytes != s.n {
						return nil, fmt.Errorf("mpi: replay %s: rank %d step %d expects %d bytes from rank %d, which sent %d",
							coll, r, st.next, s.n, s.peer, q[0].bytes)
					}
					// A pooled copy that is retained is copied twice, a fresh one
					// consumed in place is garbage at once; a ceded one is neither.
					if m := q[0].mode; m != payCeded && (m == payPooled) != (s.kind != stRecv) {
						return nil, fmt.Errorf("mpi: replay %s: rank %d step %d (receive kind %d) meets a send of rank %d with payload mode %d",
							coll, r, st.next, s.kind, s.peer, m)
					}
					st.clock.AbsorbAtLeast(q[0].arrive)
					st.clock.Advance(vclock.Time(link(place[s.peer], place[r]).Overhead))
					fifo[s.peer*n+r] = q[1:]
				}
				st.next++
				progressed = true
				if st.next == len(steps) {
					running--
				}
			}
		}
		if !progressed {
			for r := range ranks {
				if st := &ranks[r]; st.next < len(plans[r].steps) {
					return nil, fmt.Errorf("mpi: replay %s: deadlock: rank %d waits at step %d for rank %d",
						coll, r, st.next, plans[r].steps[st.next].peer)
				}
			}
		}
	}
	clocks := make([]vclock.Time, n)
	for r := range ranks {
		clocks[r] = ranks[r].clock.Now()
		for dst := 0; dst < n; dst++ {
			if len(fifo[r*n+dst]) > 0 {
				return nil, fmt.Errorf("mpi: replay %s: rank %d never receives %d message(s) rank %d sent it",
					coll, dst, len(fifo[r*n+dst]), r)
			}
		}
	}
	return clocks, nil
}
