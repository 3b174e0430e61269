// Package verify replays a recorded HMPT trace and checks that the run
// it describes respected the semantics of the message-passing model: no
// phantom or lost messages, no deadlocked wait cycle, collective
// sequences consistent across the members of each communicator, every
// created group eventually dissolved, and wildcard receives free of
// message races. It is the dynamic counterpart of the hmpivet static
// analyzers: hmpivet proves properties of the source, hmpiverify checks
// the same contracts against what one execution actually did.
//
// The verifier is a pure consumer of the trace package: it never needs
// the live runtime, so it can run over a trace file produced on another
// machine (or by a run that deadlocked and was snapshotted mid-flight,
// which is where the wait-for-graph check earns its keep).
package verify

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/trace"
)

// Mirrors of the mpi package's wildcard constants. Defined here rather
// than imported so the verifier depends only on the trace format, never
// on the runtime.
const (
	anySource = -1
	anyTag    = -1
)

// Severity ranks a finding. Only Violation affects the exit status of
// hmpiverify; Warning flags conditions that weaken the verification
// (dropped events, operations still pending at snapshot), and Info
// reports observations (message races) that are legal but worth eyes.
type Severity int

const (
	Info Severity = iota
	Warning
	Violation
)

func (s Severity) String() string {
	switch s {
	case Violation:
		return "violation"
	case Warning:
		return "warning"
	default:
		return "info"
	}
}

// MarshalText makes severities readable in -json output.
func (s Severity) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// Finding is one verifier result.
type Finding struct {
	Check    string   `json:"check"`
	Severity Severity `json:"severity"`
	// Rank is the world rank the finding is about, -1 when it concerns
	// the whole run.
	Rank    int    `json:"rank"`
	Ctx     int64  `json:"ctx,omitempty"`
	Message string `json:"message"`
}

func (f Finding) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%s] %s: %s", f.Severity, f.Check, f.Message)
	return b.String()
}

// Report collects the findings of one verification run.
type Report struct {
	Findings []Finding
	// Ran lists the checks that executed, in AllChecks order.
	Ran []string
}

// Violations returns the findings that make the run invalid.
func (r *Report) Violations() []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Severity == Violation {
			out = append(out, f)
		}
	}
	return out
}

func (r *Report) add(check string, sev Severity, rank int, ctx int64, format string, args ...any) {
	r.Findings = append(r.Findings, Finding{
		Check: check, Severity: sev, Rank: rank, Ctx: ctx,
		Message: fmt.Sprintf(format, args...),
	})
}

// AllChecks names every check Run knows, in execution order.
var AllChecks = []string{"matching", "deadlock", "collseq", "groups", "races", "requests"}

// Run verifies the snapshot. With no explicit checks every check runs;
// otherwise only the named ones (an unknown name is an error, matching
// the hmpivet -only contract).
func Run(d *trace.Data, checks ...string) (*Report, error) {
	want := map[string]bool{}
	if len(checks) == 0 {
		for _, c := range AllChecks {
			want[c] = true
		}
	} else {
		known := map[string]bool{}
		for _, c := range AllChecks {
			known[c] = true
		}
		for _, c := range checks {
			c = strings.TrimSpace(c)
			if !known[c] {
				return nil, fmt.Errorf("unknown check %q (have %s)", c, strings.Join(AllChecks, ", "))
			}
			want[c] = true
		}
	}

	rep := &Report{}
	for _, c := range AllChecks {
		if want[c] {
			rep.Ran = append(rep.Ran, c)
		}
	}

	st := replay(d)

	// A ring that overwrote events cannot support message-level
	// accounting: a "phantom" receive may simply have lost its send to
	// the overwrite. The structural checks still run, downgraded.
	sound := st.dropped == 0
	if !sound {
		rep.add("matching", Warning, -1, 0,
			"%d events were dropped from the recording ring; message-level checks are skipped and lifecycle findings downgraded", st.dropped)
	}
	if d.Meta.Unclosed > 0 {
		rep.add("matching", Warning, -1, 0, "%d trace regions were never closed", d.Meta.Unclosed)
	}

	if want["matching"] && sound {
		st.checkMatching(rep)
	}
	if want["deadlock"] {
		st.checkDeadlock(rep)
	}
	if want["collseq"] && sound {
		st.checkCollSeq(rep)
	}
	if want["groups"] {
		st.checkGroups(rep, sound)
	}
	if want["races"] && sound {
		st.checkRaces(rep)
	}
	if want["requests"] && sound {
		st.checkRequests(rep)
	}
	return rep, nil
}

// msgKey identifies one FIFO message channel: the non-overtaking
// guarantee holds per (communicator, sender, receiver, tag).
type msgKey struct {
	ctx      int64
	src, dst int
	tag      int
}

// sendRec is one sent message awaiting its receive during replay.
type sendRec struct {
	bytes int64
}

// raceKey aggregates wildcard-race observations per receive site.
type raceKey struct {
	ctx int64
	dst int
	tag int
}

// state is the replayed view of the run.
type state struct {
	nranks  int
	dropped int64
	killed  map[int]bool
	revoked map[int64]bool
	// queues holds sent-but-not-yet-received messages in send order.
	queues map[msgKey][]sendRec
	// phantoms and mismatches are matching violations found during replay.
	phantoms   []Finding
	mismatches []Finding
	// races counts wildcard receives that matched while another sender
	// also had a message in flight to the same receiver.
	races map[raceKey]int
	// colls is each rank's sequence of completed collectives per context.
	colls map[int64]map[int][]string
	// ctxRanks approximates communicator membership: the ranks that
	// produced any event on the context.
	ctxRanks map[int64]map[int]bool
	// created maps group key -> the creation (or recreation) event;
	// freed counts group_free events per key.
	created map[int64]trace.Event
	freed   map[int64]int
	chaos   bool // link-chaos events present (frames may have been dropped)
	// pending is Meta.Pending: the blocking operations still in flight at
	// snapshot, stack order per rank.
	pending []trace.PendingOp
	// reqPosts maps rank -> request id -> the posting event (isend or
	// irecv); reqDone marks the ids whose wait (or successful test) was
	// recorded.
	reqPosts map[int]map[int64]trace.Event
	reqDone  map[int]map[int64]bool
}

// replayEntry orders the global replay: sends enter the in-flight set at
// their start (the envelope exists from the moment the sender ran), and
// receives consume at their end (when the match completed). Since a
// message's receive always completes after its send began, sorting on
// these stamps — sends first on ties — guarantees every send is enqueued
// before the receive that consumes it.
type replayEntry struct {
	at   float64
	recv bool
	ev   trace.Event
}

func replay(d *trace.Data) *state {
	st := &state{
		nranks:   d.NumRanks(),
		dropped:  d.Meta.Dropped,
		killed:   map[int]bool{},
		revoked:  map[int64]bool{},
		queues:   map[msgKey][]sendRec{},
		races:    map[raceKey]int{},
		colls:    map[int64]map[int][]string{},
		ctxRanks: map[int64]map[int]bool{},
		created:  map[int64]trace.Event{},
		freed:    map[int64]int{},
		pending:  d.Meta.Pending,
		reqPosts: map[int]map[int64]trace.Event{},
		reqDone:  map[int]map[int64]bool{},
	}
	post := func(rank int, e trace.Event) {
		m := st.reqPosts[rank]
		if m == nil {
			m = map[int64]trace.Event{}
			st.reqPosts[rank] = m
		}
		m[e.A2] = e
	}
	done := func(rank int, id int64) {
		m := st.reqDone[rank]
		if m == nil {
			m = map[int64]bool{}
			st.reqDone[rank] = m
		}
		m[id] = true
	}
	var entries []replayEntry
	d.EachEvent(func(rank int, e trace.Event) bool {
		if e.Ctx != 0 {
			m := st.ctxRanks[e.Ctx]
			if m == nil {
				m = map[int]bool{}
				st.ctxRanks[e.Ctx] = m
			}
			m[rank] = true
		}
		switch e.Kind {
		case trace.KindSend:
			entries = append(entries, replayEntry{at: float64(e.Start), ev: e})
		case trace.KindRecv:
			entries = append(entries, replayEntry{at: float64(e.End), recv: true, ev: e})
		case trace.KindKill:
			st.killed[int(e.Rank)] = true
		case trace.KindRevoke:
			st.revoked[e.Ctx] = true
		case trace.KindColl:
			m := st.colls[e.Ctx]
			if m == nil {
				m = map[int][]string{}
				st.colls[e.Ctx] = m
			}
			m[rank] = append(m[rank], e.Name)
		case trace.KindIsend, trace.KindIrecv:
			post(rank, e)
		case trace.KindWait:
			done(rank, e.A2)
		case trace.KindTest:
			if e.A0 == 1 {
				done(rank, e.A2)
			}
		case trace.KindGroupCreate, trace.KindGroupRecreate:
			st.created[e.Ctx] = e
		case trace.KindGroupFree:
			st.freed[e.Ctx]++
		case trace.KindLinkFault, trace.KindRetransmit:
			st.chaos = true
		}
		return true
	})
	sort.SliceStable(entries, func(i, j int) bool {
		if entries[i].at != entries[j].at {
			return entries[i].at < entries[j].at
		}
		return !entries[i].recv && entries[j].recv
	})
	for _, en := range entries {
		e := en.ev
		if !en.recv {
			k := msgKey{ctx: e.Ctx, src: int(e.Rank), dst: int(e.Peer), tag: int(e.Tag)}
			st.queues[k] = append(st.queues[k], sendRec{bytes: e.Bytes})
			continue
		}
		k := msgKey{ctx: e.Ctx, src: int(e.Peer), dst: int(e.Rank), tag: int(e.Tag)}
		if e.A1 == 1 {
			// Wildcard match: how many other senders also had a message
			// this receive could have taken? More than one candidate
			// means the match was decided by arrival order — a race on a
			// real network.
			candidates := 0
			for qk, q := range st.queues {
				if len(q) > 0 && qk.ctx == k.ctx && qk.dst == k.dst && qk.tag == k.tag {
					candidates++
				}
			}
			if candidates > 1 {
				st.races[raceKey{ctx: k.ctx, dst: k.dst, tag: k.tag}]++
			}
		}
		q := st.queues[k]
		if len(q) == 0 {
			st.phantoms = append(st.phantoms, Finding{
				Check: "matching", Severity: Violation, Rank: k.dst, Ctx: k.ctx,
				Message: fmt.Sprintf("rank %d received a message from rank %d (ctx %d, tag %d) that no recorded send produced", k.dst, k.src, k.ctx, k.tag),
			})
			continue
		}
		if q[0].bytes != e.Bytes {
			st.mismatches = append(st.mismatches, Finding{
				Check: "matching", Severity: Violation, Rank: k.dst, Ctx: k.ctx,
				Message: fmt.Sprintf("rank %d received %d bytes from rank %d (ctx %d, tag %d) but the matching send carried %d: messages overtook each other on a FIFO channel", k.dst, e.Bytes, k.src, k.ctx, k.tag, q[0].bytes),
			})
		}
		st.queues[k] = q[1:]
	}
	return st
}

// checkMatching reports replay violations plus sends that were never
// received. An unreceived send is excused when its receiver was killed or
// its communicator revoked (the runtime aborts those receives by design),
// and reported as a warning — not a violation — otherwise: a message
// legitimately in flight when the run ended is indistinguishable from a
// lost one in the trace alone.
func (st *state) checkMatching(rep *Report) {
	rep.Findings = append(rep.Findings, st.phantoms...)
	rep.Findings = append(rep.Findings, st.mismatches...)
	type leak struct {
		key msgKey
		n   int
	}
	var leaks []leak
	for k, q := range st.queues {
		if len(q) == 0 || st.killed[k.dst] || st.revoked[k.ctx] {
			continue
		}
		leaks = append(leaks, leak{key: k, n: len(q)})
	}
	sort.Slice(leaks, func(i, j int) bool {
		a, b := leaks[i].key, leaks[j].key
		if a.ctx != b.ctx {
			return a.ctx < b.ctx
		}
		if a.src != b.src {
			return a.src < b.src
		}
		if a.dst != b.dst {
			return a.dst < b.dst
		}
		return a.tag < b.tag
	})
	sev := Warning
	for _, l := range leaks {
		extra := ""
		if st.chaos {
			extra = " (link chaos was active; the frame may have been dropped in transit)"
		}
		rep.add("matching", sev, l.key.dst, l.key.ctx,
			"%d message(s) from rank %d to rank %d (ctx %d, tag %d) were sent but never received%s",
			l.n, l.key.src, l.key.dst, l.key.ctx, l.key.tag, extra)
	}
}

// checkDeadlock runs the wait-for-graph analysis over the operations
// still pending when the trace was snapshotted. Starting from every
// blocked rank, it repeatedly releases ranks whose wait is satisfiable —
// a matching send already in flight, an awaited peer that is not itself
// blocked (it may yet send), a killed peer or revoked context (the
// runtime aborts those waits) — until a fixpoint. Whatever remains is a
// genuine cycle: every rank in it waits on another member of the set.
func (st *state) checkDeadlock(rep *Report) {
	// Innermost pending operation per rank: PendingOps lists each rank's
	// stack bottom-up, so the last entry wins.
	blocked := map[int]trace.PendingOp{}
	for _, op := range st.pending {
		if st.killed[op.Rank] {
			continue // a corpse is dead, not deadlocked
		}
		blocked[op.Rank] = op
	}
	for changed := true; changed; {
		changed = false
		for r, op := range blocked {
			if st.releasable(r, op, blocked) {
				delete(blocked, r)
				changed = true
			}
		}
	}
	if len(blocked) == 0 {
		if n := len(st.pending); n > 0 {
			rep.add("deadlock", Warning, -1, 0,
				"%d blocking operation(s) were still pending at snapshot but all are satisfiable; the run was cut short, not deadlocked", n)
		}
		return
	}
	ranks := make([]int, 0, len(blocked))
	for r := range blocked {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	var b strings.Builder
	fmt.Fprintf(&b, "deadlock: %d rank(s) wait on each other with no satisfying message in flight:", len(ranks))
	for _, r := range ranks {
		op := blocked[r]
		peer := fmt.Sprintf("rank %d", op.Peer)
		if op.AnySrc {
			peer = "any source"
		}
		fmt.Fprintf(&b, " rank %d blocked in %s awaiting %s (ctx %d, tag %d) since t=%.6f;", r, op.Kind, peer, op.Ctx, op.Tag, op.Since)
	}
	rep.add("deadlock", Violation, ranks[0], blocked[ranks[0]].Ctx, "%s", strings.TrimSuffix(b.String(), ";"))
}

// releasable reports whether rank r's wait can still complete given the
// set of currently blocked ranks.
func (st *state) releasable(r int, op trace.PendingOp, blocked map[int]trace.PendingOp) bool {
	if st.revoked[op.Ctx] {
		return true // failWatch aborts waits on a revoked communicator
	}
	if op.AnySrc {
		// A wildcard wait completes if any message is headed here, or if
		// any other live rank is still running and could produce one.
		if st.hasInFlight(anySource, r, op) {
			return true
		}
		for s := 0; s < st.nranks; s++ {
			if s == r || st.killed[s] {
				continue
			}
			if _, isBlocked := blocked[s]; !isBlocked {
				return true
			}
		}
		return false
	}
	if st.killed[op.Peer] {
		return true // failWatch turns the wait into an error
	}
	if _, isBlocked := blocked[op.Peer]; !isBlocked {
		return true // the peer is still running; it may yet send
	}
	return st.hasInFlight(op.Peer, r, op)
}

// hasInFlight reports whether an unreceived send matching the pending
// wait exists. src == anySource accepts any sender.
func (st *state) hasInFlight(src, dst int, op trace.PendingOp) bool {
	for k, q := range st.queues {
		if len(q) == 0 || k.ctx != op.Ctx || k.dst != dst {
			continue
		}
		if src != anySource && k.src != src {
			continue
		}
		if op.Tag != anyTag && k.tag != op.Tag {
			continue
		}
		return true
	}
	return false
}

// checkCollSeq verifies that the members of each communicator executed
// the same collectives in the same order. A rank may stop early — run a
// strict prefix — only when the trace explains it: the rank was killed,
// the context was revoked, or a member of the communicator died (peers
// abort their collectives when a member fails, without completing them).
// A same-position mismatch is never excused: two ranks that entered
// different collectives at the same step have diverged.
func (st *state) checkCollSeq(rep *Report) {
	ctxs := make([]int64, 0, len(st.colls))
	for ctx := range st.colls {
		ctxs = append(ctxs, ctx)
	}
	sort.Slice(ctxs, func(i, j int) bool { return ctxs[i] < ctxs[j] })
	for _, ctx := range ctxs {
		byRank := st.colls[ctx]
		ranks := make([]int, 0, len(byRank))
		for r := range byRank {
			ranks = append(ranks, r)
		}
		sort.Ints(ranks)
		// Reference: the longest sequence (lowest rank on ties).
		ref := ranks[0]
		for _, r := range ranks[1:] {
			if len(byRank[r]) > len(byRank[ref]) {
				ref = r
			}
		}
		refSeq := byRank[ref]
		memberDied := false
		for r := range st.ctxRanks[ctx] {
			if st.killed[r] {
				memberDied = true
				break
			}
		}
		for _, r := range ranks {
			seq := byRank[r]
			diverged := false
			for i := 0; i < len(seq) && i < len(refSeq); i++ {
				if seq[i] != refSeq[i] {
					rep.add("collseq", Violation, r, ctx,
						"collective sequence diverged on ctx %d: rank %d ran %q as collective #%d where rank %d ran %q",
						ctx, r, seq[i], i+1, ref, refSeq[i])
					diverged = true
					break
				}
			}
			if diverged || len(seq) >= len(refSeq) {
				continue
			}
			if st.killed[r] || st.revoked[ctx] || memberDied {
				continue // an interrupted prefix, explained by the trace
			}
			rep.add("collseq", Violation, r, ctx,
				"rank %d completed only %d of %d collectives on ctx %d with no failure or revocation to explain the shortfall",
				r, len(seq), len(refSeq), ctx)
		}
	}
}

// checkGroups verifies group lifecycle accounting: every group creation
// (or recreation) must be balanced by at least one dissolution record.
// The members each record their own group_free, so a healthy trace has
// several frees per key; zero means the group leaked.
func (st *state) checkGroups(rep *Report, sound bool) {
	sev := Violation
	if !sound {
		sev = Warning // creation events may have been overwritten
	}
	keys := make([]int64, 0, len(st.created))
	for k := range st.created {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	for _, k := range keys {
		if st.freed[k] > 0 {
			continue
		}
		e := st.created[k]
		rep.add("groups", sev, int(e.Rank), k,
			"group key %d (%s by rank %d, %d members) was never freed", k, e.Kind, e.Rank, e.Bytes)
	}
}

// checkRaces reports wildcard receives whose match was decided by
// arrival order. Legal — AnySource asks for exactly this — but each site
// is a seam where a real network could deliver a different execution, so
// the report surfaces them for review.
func (st *state) checkRaces(rep *Report) {
	keys := make([]raceKey, 0, len(st.races))
	for k := range st.races {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.ctx != b.ctx {
			return a.ctx < b.ctx
		}
		if a.dst != b.dst {
			return a.dst < b.dst
		}
		return a.tag < b.tag
	})
	for _, k := range keys {
		rep.add("races", Info, k.dst, k.ctx,
			"%d AnySource receive(s) on rank %d (ctx %d, tag %d) matched while another sender also had a message in flight: the result depends on arrival order",
			st.races[k], k.dst, k.ctx, k.tag)
	}
}

// checkRequests verifies nonblocking-request lifecycles: every posted
// request (isend or irecv) must reach a wait or a successful test on the
// posting rank. The check only fires on
// clean runs — a killed rank or a revoked communicator legitimately
// abandons its pending requests, and the runtime aborts their waits by
// design, so traces with failures are exempt.
func (st *state) checkRequests(rep *Report) {
	if len(st.killed) > 0 || len(st.revoked) > 0 {
		return
	}
	ranks := make([]int, 0, len(st.reqPosts))
	for r := range st.reqPosts {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)
	for _, r := range ranks {
		posts := st.reqPosts[r]
		ids := make([]int64, 0, len(posts))
		for id := range posts {
			if !st.reqDone[r][id] {
				ids = append(ids, id)
			}
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			e := posts[id]
			rep.add("requests", Violation, r, e.Ctx,
				"rank %d posted request %d (%s, ctx %d, tag %d) that never completed: no wait or successful test recorded",
				r, id, e.Kind, e.Ctx, e.Tag)
		}
	}
}
