package trace

// Trace analyses: per-link traffic matrices, per-rank activity breakdown,
// and critical-path extraction over the happens-before graph of the run.
// All three read a Data snapshot, so they work on live recordings and on
// binary trace files alike.

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/vclock"
)

// LinkMatrix aggregates the point-to-point traffic of a run into
// rank-by-rank matrices: Bytes[src][dst] and Messages[src][dst] count the
// payload bytes and messages sent from world rank src to world rank dst.
// Collective traffic is included — collectives decompose into the sends
// their algorithm performs, which is exactly what a per-link view is for.
type LinkMatrix struct {
	Bytes    [][]int64
	Messages [][]int64
}

// Links builds the traffic matrices from the snapshot's send events.
func Links(d *Data) *LinkMatrix {
	n := d.NumRanks()
	m := &LinkMatrix{Bytes: make([][]int64, n), Messages: make([][]int64, n)}
	for i := range m.Bytes {
		m.Bytes[i] = make([]int64, n)
		m.Messages[i] = make([]int64, n)
	}
	for _, evs := range d.PerRank {
		for i := range evs {
			e := &evs[i]
			if e.Kind != KindSend || e.Peer < 0 || int(e.Peer) >= n {
				continue
			}
			m.Bytes[e.Rank][e.Peer] += e.Bytes
			m.Messages[e.Rank][e.Peer]++
		}
	}
	return m
}

// Render prints the byte matrix as an aligned table (rows = senders).
func (m *LinkMatrix) Render(w io.Writer) error {
	n := len(m.Bytes)
	if _, err := fmt.Fprintf(w, "%8s", "src\\dst"); err != nil {
		return err
	}
	for j := 0; j < n; j++ {
		if _, err := fmt.Fprintf(w, " %10d", j); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if _, err := fmt.Fprintf(w, "%8d", i); err != nil {
			return err
		}
		for j := 0; j < n; j++ {
			if _, err := fmt.Fprintf(w, " %10d", m.Bytes[i][j]); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// RankActivity is one rank's virtual-time budget: how much of the run it
// spent computing, in communication calls (send serialisation plus
// receive waiting), and idle (neither recorded activity).
type RankActivity struct {
	Rank    int         `json:"rank"`
	Compute vclock.Time `json:"compute_s"`
	Comm    vclock.Time `json:"comm_s"`
	Idle    vclock.Time `json:"idle_s"`
}

// Breakdown computes the per-rank activity budget against the run's
// makespan. Overlapping intervals on one rank (a receive posted during an
// enclosing region, say) are merged per category before idle time is
// derived, so the three columns never exceed the makespan.
func Breakdown(d *Data) []RankActivity {
	makespan := d.Makespan()
	out := make([]RankActivity, d.NumRanks())
	for r, evs := range d.PerRank {
		var compute, comm []interval
		for i := range evs {
			e := &evs[i]
			switch e.Kind {
			case KindCompute:
				compute = append(compute, interval{e.Start, e.End})
			case KindSend, KindRecv:
				comm = append(comm, interval{e.Start, e.End})
			}
		}
		c := coveredTime(compute)
		m := coveredTime(comm)
		idle := makespan - c - m
		if idle < 0 {
			idle = 0
		}
		out[r] = RankActivity{Rank: r, Compute: c, Comm: m, Idle: idle}
	}
	return out
}

type interval struct{ lo, hi vclock.Time }

// coveredTime returns the total length of the union of the intervals.
func coveredTime(ivs []interval) vclock.Time {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total vclock.Time
	cur := ivs[0]
	for _, iv := range ivs[1:] {
		if iv.lo <= cur.hi {
			if iv.hi > cur.hi {
				cur.hi = iv.hi
			}
			continue
		}
		total += cur.hi - cur.lo
		cur = iv
	}
	return total + cur.hi - cur.lo
}

// PathStep is one event on the critical path, annotated with how much
// virtual time the step contributes to the path.
type PathStep struct {
	Event    Event
	Duration vclock.Time
}

// CriticalPath is the longest happens-before chain of the run: the
// sequence of events that ends at the run's final activity and, walked
// backwards, always follows the binding constraint (the matched send for
// a receive, the previous activity on the same rank otherwise). Shrinking
// anything off this chain shrinks the makespan; shrinking anything else
// does not.
type CriticalPath struct {
	Steps []PathStep
	// ByKind sums the path's step durations per event kind.
	ByKind map[Kind]vclock.Time
	// Makespan is the virtual end time of the path's last event.
	Makespan vclock.Time
}

// sendKey pairs sends with receives: the simulation's messages are FIFO
// per (sender, receiver, context, tag), so matching the k-th recv with
// the k-th send of its key reconstructs the happens-before edges exactly.
type sendKey struct {
	src, dst int32
	ctx      int64
	tag      int32
}

// ExtractCriticalPath walks the happens-before graph backwards from the
// event with the largest virtual end time. Point events (instants) and
// region/collective wrappers are skipped: the path runs over the atomic
// activities (compute, send, recv) that actually occupy virtual time.
func ExtractCriticalPath(d *Data) *CriticalPath {
	// Per-rank atomic activities in emission order (which is also
	// virtual-time order within one rank).
	perRank := make([][]Event, d.NumRanks())
	sends := make(map[sendKey][]eventID)
	for r, evs := range d.PerRank {
		for i := range evs {
			e := evs[i]
			switch e.Kind {
			case KindCompute, KindSend, KindRecv:
				perRank[r] = append(perRank[r], e)
			default:
				continue
			}
			if e.Kind == KindSend {
				k := sendKey{src: e.Rank, dst: e.Peer, ctx: e.Ctx, tag: e.Tag}
				sends[k] = append(sends[k], eventID{r, len(perRank[r]) - 1})
			}
		}
	}
	// Consume send queues in FIFO order per key as receives are matched.
	// Receives must be matched in each key's arrival order, which equals
	// the per-rank emission order of the recv events; walk all receives
	// up front to build the recv -> send mapping.
	matched := make(map[eventID]eventID)
	next := make(map[sendKey]int)
	for r, evs := range perRank {
		for i := range evs {
			e := &evs[i]
			if e.Kind != KindRecv {
				continue
			}
			k := sendKey{src: e.Peer, dst: e.Rank, ctx: e.Ctx, tag: e.Tag}
			if q := sends[k]; next[k] < len(q) {
				matched[eventID{r, i}] = q[next[k]]
				next[k]++
			}
		}
	}
	cp := &CriticalPath{ByKind: make(map[Kind]vclock.Time)}
	curRank, curIdx := -1, -1
	for r, evs := range perRank {
		for i := range evs {
			if curRank < 0 || evs[i].End > perRank[curRank][curIdx].End {
				curRank, curIdx = r, i
			}
		}
	}
	if curRank < 0 {
		return cp
	}
	cp.Makespan = perRank[curRank][curIdx].End
	var rev []PathStep
	for curRank >= 0 && len(rev) < 1_000_000 {
		e := perRank[curRank][curIdx]
		rev = append(rev, PathStep{Event: e, Duration: e.End - e.Start})
		// Predecessors: the matched send (for a recv) and the previous
		// activity on the same rank. The binding one ends latest — it is
		// what this event actually waited for.
		var prevRank, prevIdx = -1, -1
		if curIdx > 0 {
			prevRank, prevIdx = curRank, curIdx-1
		}
		// A self-send sits on the same rank as its receive; only an earlier
		// index is a predecessor (guards the walk against cycles).
		if s, ok := matched[eventID{curRank, curIdx}]; ok && (s.rank != curRank || s.idx < curIdx) &&
			(prevRank < 0 || perRank[s.rank][s.idx].End >= perRank[prevRank][prevIdx].End) {
			prevRank, prevIdx = s.rank, s.idx
		}
		curRank, curIdx = prevRank, prevIdx
	}
	// Reverse into forward order.
	cp.Steps = make([]PathStep, len(rev))
	for i, s := range rev {
		cp.Steps[len(rev)-1-i] = s
		cp.ByKind[s.Event.Kind] += s.Duration
	}
	return cp
}

// eventID names an activity by its rank and index in perRank.
type eventID struct{ rank, idx int }

// Render prints the critical path: the per-kind budget, then each step.
func (cp *CriticalPath) Render(w io.Writer) error {
	if len(cp.Steps) == 0 {
		_, err := fmt.Fprintln(w, "(no activity)")
		return err
	}
	if _, err := fmt.Fprintf(w, "critical path: %d steps, makespan %.6gs\n", len(cp.Steps), float64(cp.Makespan)); err != nil {
		return err
	}
	kinds := make([]Kind, 0, len(cp.ByKind))
	for k := range cp.ByKind {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	for _, k := range kinds {
		share := 0.0
		if cp.Makespan > 0 {
			share = 100 * float64(cp.ByKind[k]) / float64(cp.Makespan)
		}
		if _, err := fmt.Fprintf(w, "  %-8s %12.6gs  %5.1f%% of makespan\n", k.String(), float64(cp.ByKind[k]), share); err != nil {
			return err
		}
	}
	for _, s := range cp.Steps {
		e := s.Event
		peer := ""
		if e.Peer >= 0 {
			peer = fmt.Sprintf(" peer=%d bytes=%d", e.Peer, e.Bytes)
		}
		if _, err := fmt.Fprintf(w, "  t=[%.6g, %.6g] rank %d %s%s\n",
			float64(e.Start), float64(e.End), e.Rank, e.Kind.String(), peer); err != nil {
			return err
		}
	}
	return nil
}
