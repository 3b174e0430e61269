package verify

import (
	"strings"
	"testing"

	"repro/internal/trace"
	"repro/internal/vclock"
)

// mkData assembles a synthetic snapshot from a flat event list, routing
// each event to its rank's shard in list order.
func mkData(nranks int, events ...trace.Event) *trace.Data {
	d := &trace.Data{Meta: trace.Meta{NRanks: nranks}, PerRank: make([][]trace.Event, nranks)}
	for _, e := range events {
		d.PerRank[e.Rank] = append(d.PerRank[e.Rank], e)
	}
	return d
}

func send(rank, peer, tag int, ctx, bytes int64, at float64) trace.Event {
	return trace.Event{
		Rank: int32(rank), Kind: trace.KindSend, Peer: int32(peer), Tag: int32(tag),
		Ctx: ctx, Bytes: bytes, Start: vclock.Time(at), End: vclock.Time(at + 0.001),
	}
}

func recv(rank, peer, tag int, ctx, bytes int64, at float64) trace.Event {
	return trace.Event{
		Rank: int32(rank), Kind: trace.KindRecv, Peer: int32(peer), Tag: int32(tag),
		Ctx: ctx, Bytes: bytes, Start: vclock.Time(at - 0.001), End: vclock.Time(at),
	}
}

func coll(rank int, ctx int64, name string, at float64) trace.Event {
	return trace.Event{
		Rank: int32(rank), Kind: trace.KindColl, Peer: -1, Ctx: ctx, Name: name,
		Start: vclock.Time(at), End: vclock.Time(at + 0.001),
	}
}

func kill(rank int, at float64) trace.Event {
	return trace.Event{Rank: int32(rank), Kind: trace.KindKill, Peer: -1, Start: vclock.Time(at), End: vclock.Time(at)}
}

// findings filters a report by check name.
func findings(rep *Report, check string) []Finding {
	var out []Finding
	for _, f := range rep.Findings {
		if f.Check == check {
			out = append(out, f)
		}
	}
	return out
}

func mustRun(t *testing.T, d *trace.Data, checks ...string) *Report {
	t.Helper()
	rep, err := Run(d, checks...)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestCleanExchange(t *testing.T) {
	d := mkData(2,
		send(0, 1, 9, 1, 64, 1.0),
		recv(1, 0, 9, 1, 64, 1.5),
	)
	rep := mustRun(t, d)
	if len(rep.Findings) != 0 {
		t.Fatalf("clean exchange produced findings: %v", rep.Findings)
	}
	if len(rep.Ran) != len(AllChecks) {
		t.Fatalf("Ran = %v, want all of %v", rep.Ran, AllChecks)
	}
}

func TestPhantomReceive(t *testing.T) {
	d := mkData(2, recv(1, 0, 9, 1, 64, 1.5))
	rep := mustRun(t, d)
	v := rep.Violations()
	if len(v) != 1 || !strings.Contains(v[0].Message, "no recorded send") {
		t.Fatalf("violations = %v, want one phantom-receive", v)
	}
}

func TestFIFOSizeMismatch(t *testing.T) {
	// Two messages on one channel received in swapped order: the byte
	// counts cross.
	d := mkData(2,
		send(0, 1, 9, 1, 10, 1.0),
		send(0, 1, 9, 1, 20, 1.1),
		recv(1, 0, 9, 1, 20, 2.0),
		recv(1, 0, 9, 1, 10, 2.1),
	)
	rep := mustRun(t, d)
	v := rep.Violations()
	if len(v) == 0 || !strings.Contains(v[0].Message, "overtook") {
		t.Fatalf("violations = %v, want FIFO overtaking", v)
	}
}

func TestUnreceivedSend(t *testing.T) {
	d := mkData(2, send(0, 1, 9, 1, 64, 1.0))
	rep := mustRun(t, d)
	fs := findings(rep, "matching")
	if len(fs) != 1 || fs[0].Severity != Warning || !strings.Contains(fs[0].Message, "never received") {
		t.Fatalf("findings = %v, want one never-received warning", fs)
	}

	// The same trace with the receiver killed: the loss is explained.
	d = mkData(2, send(0, 1, 9, 1, 64, 1.0), kill(1, 2.0))
	rep = mustRun(t, d)
	if fs := findings(rep, "matching"); len(fs) != 0 {
		t.Fatalf("killed receiver still flagged: %v", fs)
	}
}

func TestCollSeqDivergence(t *testing.T) {
	d := mkData(2,
		coll(0, 7, "bcast/binomial", 1.0),
		coll(0, 7, "gather/flat", 2.0),
		coll(1, 7, "gather/flat", 1.0),
		coll(1, 7, "bcast/binomial", 2.0),
	)
	rep := mustRun(t, d)
	v := rep.Violations()
	if len(v) == 0 || v[0].Check != "collseq" || !strings.Contains(v[0].Message, "diverged") {
		t.Fatalf("violations = %v, want collseq divergence", v)
	}
}

func TestCollSeqPrefix(t *testing.T) {
	// Rank 1 stopped after the first collective with nothing to explain
	// it: violation.
	d := mkData(2,
		coll(0, 7, "bcast/binomial", 1.0),
		coll(0, 7, "gather/flat", 2.0),
		coll(1, 7, "bcast/binomial", 1.0),
	)
	rep := mustRun(t, d)
	v := rep.Violations()
	if len(v) != 1 || !strings.Contains(v[0].Message, "completed only 1 of 2") {
		t.Fatalf("violations = %v, want unexplained prefix", v)
	}

	// The same shortfall with the rank killed is an interrupted run.
	d = mkData(2,
		coll(0, 7, "bcast/binomial", 1.0),
		coll(0, 7, "gather/flat", 2.0),
		coll(1, 7, "bcast/binomial", 1.0),
		kill(1, 1.5),
	)
	rep = mustRun(t, d)
	if v := rep.Violations(); len(v) != 0 {
		t.Fatalf("killed rank's prefix flagged: %v", v)
	}
}

func TestGroupLeak(t *testing.T) {
	create := trace.Event{Rank: 0, Kind: trace.KindGroupCreate, Peer: -1, Ctx: 42, Bytes: 3}
	free := trace.Event{Rank: 0, Kind: trace.KindGroupFree, Peer: -1, Ctx: 42}

	rep := mustRun(t, mkData(1, create))
	v := rep.Violations()
	if len(v) != 1 || v[0].Check != "groups" || !strings.Contains(v[0].Message, "never freed") {
		t.Fatalf("violations = %v, want group leak", v)
	}

	rep = mustRun(t, mkData(1, create, free))
	if v := rep.Violations(); len(v) != 0 {
		t.Fatalf("freed group flagged: %v", v)
	}

	// ULFM recreate path: the old key is dissolved, a new key created
	// and freed. No leak on either.
	recreate := trace.Event{Rank: 0, Kind: trace.KindGroupRecreate, Peer: -1, Ctx: 43, Bytes: 2}
	free43 := trace.Event{Rank: 0, Kind: trace.KindGroupFree, Peer: -1, Ctx: 43}
	rep = mustRun(t, mkData(1, create, free, recreate, free43))
	if v := rep.Violations(); len(v) != 0 {
		t.Fatalf("recreate lifecycle flagged: %v", v)
	}
}

func TestAnySourceRace(t *testing.T) {
	// Two senders have messages in flight when the wildcard receive
	// matches: arrival order decided the winner.
	d := mkData(3,
		send(0, 1, 9, 1, 8, 1.0),
		send(2, 1, 9, 1, 8, 1.1),
		trace.Event{
			Rank: 1, Kind: trace.KindRecv, Peer: 0, Tag: 9, Ctx: 1, Bytes: 8,
			Start: vclock.Time(1.2), End: vclock.Time(1.5), A1: 1,
		},
		recv(1, 2, 9, 1, 8, 2.0),
	)
	rep := mustRun(t, d)
	fs := findings(rep, "races")
	if len(fs) != 1 || fs[0].Severity != Info || !strings.Contains(fs[0].Message, "arrival order") {
		t.Fatalf("findings = %v, want one race info", fs)
	}
	if v := rep.Violations(); len(v) != 0 {
		t.Fatalf("legal race reported as violation: %v", v)
	}
}

func TestDroppedEventsDowngrade(t *testing.T) {
	// With ring overwrites the message-level checks are unsound: the
	// phantom receive is NOT reported, the group leak degrades to a
	// warning, and the drop itself is surfaced.
	d := mkData(2,
		recv(1, 0, 9, 1, 64, 1.5),
		trace.Event{Rank: 0, Kind: trace.KindGroupCreate, Peer: -1, Ctx: 42, Bytes: 3},
	)
	d.Meta.Dropped = 7
	rep := mustRun(t, d)
	if v := rep.Violations(); len(v) != 0 {
		t.Fatalf("unsound trace produced violations: %v", v)
	}
	var sawDrop, sawLeak bool
	for _, f := range rep.Findings {
		sawDrop = sawDrop || strings.Contains(f.Message, "dropped")
		sawLeak = sawLeak || (f.Check == "groups" && f.Severity == Warning)
	}
	if !sawDrop || !sawLeak {
		t.Fatalf("findings = %v, want drop warning and downgraded leak", rep.Findings)
	}
}

func TestCheckSelection(t *testing.T) {
	// A trace violating both matching and groups, verified with only the
	// groups check: matching findings must not appear.
	d := mkData(2,
		recv(1, 0, 9, 1, 64, 1.5),
		trace.Event{Rank: 0, Kind: trace.KindGroupCreate, Peer: -1, Ctx: 42, Bytes: 3},
	)
	rep := mustRun(t, d, "groups")
	if fs := findings(rep, "matching"); len(fs) != 0 {
		t.Fatalf("unselected check reported: %v", fs)
	}
	if fs := findings(rep, "groups"); len(fs) != 1 {
		t.Fatalf("selected check missing: %v", rep.Findings)
	}

	// deadlock is not a check: the runtime reports a deadlock itself.
	for _, c := range []string{"nosuch", "deadlock"} {
		if _, err := Run(d, c); err == nil {
			t.Fatalf("unknown check %q must be rejected", c)
		}
	}
}

// --- Request lifecycles. ---

func irecvPost(rank, peer, tag int, ctx, id int64, at float64) trace.Event {
	return trace.Event{
		Rank: int32(rank), Kind: trace.KindIrecv, Peer: int32(peer), Tag: int32(tag),
		Ctx: ctx, A2: id, Start: vclock.Time(at), End: vclock.Time(at),
	}
}

func isendPost(rank, peer, tag int, ctx, id int64, at float64) trace.Event {
	return trace.Event{
		Rank: int32(rank), Kind: trace.KindIsend, Peer: int32(peer), Tag: int32(tag),
		Ctx: ctx, A2: id, Start: vclock.Time(at), End: vclock.Time(at),
	}
}

func wait(rank int, id int64, at float64) trace.Event {
	return trace.Event{Rank: int32(rank), Kind: trace.KindWait, Peer: -1, A2: id,
		Start: vclock.Time(at), End: vclock.Time(at + 0.001)}
}

func test(rank int, id int64, ok int64, at float64) trace.Event {
	return trace.Event{Rank: int32(rank), Kind: trace.KindTest, Peer: -1, A0: ok, A2: id,
		Start: vclock.Time(at), End: vclock.Time(at)}
}

func TestRequestLifecyclesClean(t *testing.T) {
	// A full nonblocking exchange: every posted request waits or tests.
	d := mkData(2,
		isendPost(0, 1, 9, 1, 1, 1.0),
		send(0, 1, 9, 1, 64, 1.0),
		irecvPost(1, 0, 9, 1, 1, 1.1),
		recv(1, 0, 9, 1, 64, 1.5),
		wait(1, 1, 1.5),
		test(0, 1, 1, 2.0),
	)
	rep := mustRun(t, d, "requests")
	if len(rep.Findings) != 0 {
		t.Fatalf("clean request lifecycles produced findings: %v", rep.Findings)
	}
}

func TestLeakedRequest(t *testing.T) {
	// Rank 1 posts a receive it never waits for; rank 0's send request
	// completes. Exactly the irecv must be flagged.
	d := mkData(2,
		isendPost(0, 1, 9, 1, 1, 1.0),
		send(0, 1, 9, 1, 64, 1.0),
		irecvPost(1, 0, 9, 1, 1, 1.1),
		recv(1, 0, 9, 1, 64, 1.5),
		wait(0, 1, 2.0),
	)
	rep := mustRun(t, d, "requests")
	v := rep.Violations()
	if len(v) != 1 || v[0].Rank != 1 || !strings.Contains(v[0].Message, "never completed") {
		t.Fatalf("violations = %v, want one leaked irecv on rank 1", v)
	}
}

func TestLeakedRequestFailedTestDoesNotComplete(t *testing.T) {
	// A test that returned false is not a completion.
	d := mkData(1, isendPost(0, 0, 9, 1, 1, 1.0), test(0, 1, 0, 2.0))
	rep := mustRun(t, d, "requests")
	if v := rep.Violations(); len(v) != 1 {
		t.Fatalf("violations = %v, want the failed-test request flagged", v)
	}
}

func TestLeakedRequestExcusedByKill(t *testing.T) {
	// A run with a killed rank legitimately abandons pending requests.
	d := mkData(2,
		irecvPost(1, 0, 9, 1, 1, 1.1),
		kill(0, 1.2),
	)
	rep := mustRun(t, d, "requests")
	if v := rep.Violations(); len(v) != 0 {
		t.Fatalf("violations = %v, want none under a kill", v)
	}
}
