package trace

import (
	"bytes"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"testing"

	"repro/internal/vclock"
)

func TestRecorderRingWrap(t *testing.T) {
	r := NewRecorder(1, Options{ShardCap: 4})
	for i := 0; i < 10; i++ {
		r.Emit(0, Event{Rank: 0, Kind: KindCompute, Peer: -1, Start: vclock.Time(i), End: vclock.Time(i) + 1})
	}
	if got := r.Dropped(); got != 6 {
		t.Fatalf("Dropped = %d, want 6", got)
	}
	evs := r.Data().PerRank[0]
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	// Oldest retained first: events 6..9.
	for i, e := range evs {
		if want := vclock.Time(6 + i); e.Start != want {
			t.Errorf("event %d start = %v, want %v", i, e.Start, want)
		}
	}
	if d := r.Data(); d.Meta.Dropped != 6 {
		t.Fatalf("Data dropped = %d, want 6", d.Meta.Dropped)
	}
}

// refRing is the fixed-capacity ring the recorder used before its shards
// learned to grow: the whole ring allocated up front, slot n % cap
// overwritten. The growable shard must be indistinguishable from it.
type refRing struct {
	events []Event
	n      int64
}

func (r *refRing) emit(e Event) {
	r.events[r.n%int64(len(r.events))] = e
	r.n++
}

func (r *refRing) retained() []Event {
	c := int64(len(r.events))
	if r.n <= c {
		return slices.Clone(r.events[:r.n])
	}
	head := r.n % c
	return append(slices.Clone(r.events[head:]), r.events[:head]...)
}

func (r *refRing) dropped() int64 { return max(0, r.n-int64(len(r.events))) }

// TestRecorderMatchesFixedRing is the growth property: for emit counts on
// both sides of every boundary — empty, the first block, each doubling,
// the cap, several laps past it — a two-rank recorder retains the same
// events in the same order as the reference ring, and reports the same
// drops and snapshot metadata.
func TestRecorderMatchesFixedRing(t *testing.T) {
	for _, cap := range []int{4, 8, 100, 4096} {
		counts := []int{0, 1, shardBlock - 1, shardBlock, shardBlock + 1, 2*shardBlock - 1, 2 * shardBlock, 2*shardBlock + 1,
			cap - 1, cap, cap + 1, 2 * cap, 3*cap + 7}
		for _, count := range counts {
			r := NewRecorder(2, Options{ShardCap: cap})
			refs := [2]refRing{{events: make([]Event, cap)}, {events: make([]Event, cap)}}
			// Rank 1 emits a third as many, so the two shards sit at
			// different points of their growth.
			for rank, n := range []int{count, count / 3} {
				for i := 0; i < n; i++ {
					e := Event{Rank: int32(rank), Kind: KindCompute, Peer: -1, Start: vclock.Time(i), A0: int64(i)}
					r.Emit(rank, e)
					refs[rank].emit(e)
				}
			}
			wantDropped := refs[0].dropped() + refs[1].dropped()
			if got := r.Dropped(); got != wantDropped {
				t.Errorf("cap %d count %d: Dropped = %d, want %d", cap, count, got, wantDropped)
			}
			d := r.Data()
			if want := (Meta{NRanks: 2, Dropped: wantDropped}); !reflect.DeepEqual(d.Meta, want) {
				t.Errorf("cap %d count %d: Data().Meta = %+v, want %+v", cap, count, d.Meta, want)
			}
			for rank := range refs {
				want := refs[rank].retained()
				if !slices.Equal(d.PerRank[rank], want) {
					t.Errorf("cap %d count %d rank %d: Data().PerRank differs from the reference ring", cap, count, rank)
				}
			}
		}
	}
}

// TestRecorderAllocationFollowsEvents: a recorder pays for the events a
// run emits, not for its capacity. Sixteen ranks of 100 events each fit
// two blocks per shard (64 + 128 events of 120 bytes: 360 KiB in all),
// where the fixed ring zeroed 16 x 4096 x 120 B = 7.5 MiB up front; and
// away from a block boundary Emit does not allocate at all.
func TestRecorderAllocationFollowsEvents(t *testing.T) {
	const ranks, perRank, bound = 16, 100, 512 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r := NewRecorder(ranks, Options{ShardCap: 4096})
	for rank := 0; rank < ranks; rank++ {
		for i := 0; i < perRank; i++ {
			r.Emit(rank, Event{Rank: int32(rank), Kind: KindCompute, Peer: -1})
		}
	}
	d := r.Data()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Errorf("recording %d events allocated %d bytes, want <= %d", ranks*perRank, got, bound)
	}
	if d.NumEvents() != ranks*perRank {
		t.Fatalf("NumEvents = %d, want %d", d.NumEvents(), ranks*perRank)
	}
	// 100 events in, the next boundary is at 192: these 80 stay inside the block.
	if allocs := testing.AllocsPerRun(80, func() { r.Emit(0, Event{Kind: KindSend}) }); allocs != 0 {
		t.Errorf("Emit inside a block allocates %.1f times per call", allocs)
	}
}

// TestCountOnlyEmitAllocatesNothing: a count-only recorder folds each
// event into a fixed-size tally, so Emit allocates nothing at any count —
// the first event, and far past what a ring of ShardCap would hold.
func TestCountOnlyEmitAllocatesNothing(t *testing.T) {
	r := NewRecorder(2, Options{ShardCap: 4, CountOnly: true})
	e := Event{Kind: KindSend, Bytes: 100, End: 1}
	if allocs := testing.AllocsPerRun(1000, func() { r.Emit(1, e) }); allocs != 0 {
		t.Errorf("count-only Emit allocates %.1f times per call", allocs)
	}
	if d := r.Data(); d.NumEvents() != 0 || d.Meta.Dropped != 0 || r.Dropped() != 0 {
		t.Errorf("count-only recorder retained %d events, dropped %d/%d; want none", d.NumEvents(), d.Meta.Dropped, r.Dropped())
	}
}

// TestCondenseMatchesFillFromData is the one fold seen from both feeders:
// the same calls on a count-only and a retaining recorder — every kind,
// unnamed ones included, send sizes in every histogram bucket and past the
// last, regions closed, unmatched and left open — condense to
// byte-identical snapshots, event counts and makespans.
func TestCondenseMatchesFillFromData(t *testing.T) {
	count := NewRecorder(3, Options{CountOnly: true})
	keep := NewRecorder(3, Options{})
	for _, r := range []*Recorder{count, keep} {
		for i := 0; i < 600; i++ {
			rank := i % 3
			r.Emit(rank, Event{
				Rank: int32(rank), Kind: Kind(i % 30), Bytes: int64(1) << (i % 31),
				Start: vclock.Time(i), End: vclock.Time((i * 7919) % 1000),
			})
		}
		r.RegionBegin(0, "closed", 5)
		r.RegionEnd(0, "closed", 2000)
		r.RegionEnd(1, "ghost", 6)
		r.RegionBegin(2, "open", 7)
	}
	gc, gk := NewRegistry(), NewRegistry()
	nc, mc := count.Condense(gc)
	d := keep.Data()
	gk.FillFromData(d)
	var a, b bytes.Buffer
	if err := gc.Snapshot().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := gk.Snapshot().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("count-only snapshot:\n%s\nFillFromData of the retained events:\n%s", a.Bytes(), b.Bytes())
	}
	if nc != int64(d.NumEvents()) || mc != d.Makespan() || mc != 2000 {
		t.Errorf("Condense = %d events, makespan %v; retained %d, %v", nc, mc, d.NumEvents(), d.Makespan())
	}
}

func TestRecorderNoWrap(t *testing.T) {
	r := NewRecorder(2, Options{ShardCap: 8})
	r.Emit(1, Event{Rank: 1, Kind: KindSend, Peer: 0, Start: 1, End: 2})
	if got := r.Dropped(); got != 0 {
		t.Fatalf("Dropped = %d, want 0", got)
	}
	if evs := r.Data().PerRank[0]; len(evs) != 0 {
		t.Fatalf("rank 0 has %d events, want 0", len(evs))
	}
	evs := r.Data().PerRank[1]
	if len(evs) != 1 || evs[0].Kind != KindSend {
		t.Fatalf("rank 1 events = %+v", evs)
	}
}

func TestRegionsNestAndMatchByName(t *testing.T) {
	r := NewRecorder(1, Options{})
	r.RegionBegin(0, "outer", 0)
	r.RegionBegin(0, "inner", 1)
	r.RegionEnd(0, "inner", 2)
	r.RegionEnd(0, "outer", 3)
	evs := r.Data().PerRank[0]
	if len(evs) != 2 {
		t.Fatalf("got %d region events, want 2", len(evs))
	}
	// Ends emit in closing order: inner first.
	if evs[0].Name != "inner" || evs[0].Start != 1 || evs[0].End != 2 {
		t.Errorf("inner region = %+v", evs[0])
	}
	if evs[1].Name != "outer" || evs[1].Start != 0 || evs[1].End != 3 {
		t.Errorf("outer region = %+v", evs[1])
	}
	if d := r.Data(); d.Meta.Unclosed != 0 {
		t.Fatalf("unclosed = %d, want 0", d.Meta.Unclosed)
	}
}

func TestRegionEndWithoutBeginIgnored(t *testing.T) {
	r := NewRecorder(1, Options{})
	r.RegionEnd(0, "ghost", 1)
	if evs := r.Data().PerRank[0]; len(evs) != 0 {
		t.Fatalf("bad end emitted %d events", len(evs))
	}
	// The bad end and an unmatched begin are surfaced through the
	// snapshot metadata, and survive the binary round trip.
	r.RegionBegin(0, "open", 2)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, r.Data()); err != nil {
		t.Fatal(err)
	}
	d, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d.Meta.Unclosed != 1 || d.Meta.Unmatched != 1 {
		t.Fatalf("unclosed, unmatched = %d, %d, want 1, 1", d.Meta.Unclosed, d.Meta.Unmatched)
	}
}

func TestPredictRoundTrip(t *testing.T) {
	r := NewRecorder(1, Options{})
	r.Predict(0, "phase", 0.125, 3)
	evs := r.Data().PerRank[0]
	if len(evs) != 1 {
		t.Fatalf("got %d events", len(evs))
	}
	e := evs[0]
	if e.Kind != KindPredict || e.Name != "phase" || e.Start != 3 || e.End != 3 {
		t.Fatalf("predict event = %+v", e)
	}
	if got := BitsFloat(e.A0); got != 0.125 {
		t.Fatalf("predicted = %v, want 0.125", got)
	}
}

func TestFloatBitsRoundTrip(t *testing.T) {
	for _, f := range []float64{0, 1, -1, 0.1, 1e-300, 1e300, -3.75} {
		if got := BitsFloat(FloatBits(f)); got != f {
			t.Errorf("round trip of %v = %v", f, got)
		}
	}
}

func TestDataEventsMergeOrder(t *testing.T) {
	r := NewRecorder(3, Options{})
	// Same start on ranks 2 and 0: rank is the tie-break.
	r.Emit(2, Event{Rank: 2, Kind: KindCompute, Peer: -1, Start: 1, End: 2})
	r.Emit(0, Event{Rank: 0, Kind: KindCompute, Peer: -1, Start: 1, End: 3})
	r.Emit(1, Event{Rank: 1, Kind: KindCompute, Peer: -1, Start: 0, End: 1})
	evs := r.Data().Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events", len(evs))
	}
	if evs[0].Rank != 1 || evs[1].Rank != 0 || evs[2].Rank != 2 {
		t.Fatalf("merge order ranks = %d,%d,%d, want 1,0,2", evs[0].Rank, evs[1].Rank, evs[2].Rank)
	}
	if got := r.Data().Makespan(); got != 3 {
		t.Fatalf("makespan = %v, want 3", got)
	}
}

// TestDataEventsMatchesStableSort pins the merge order against the
// definition it replaced: a stable sort by (Start, Rank) of the rank-major
// stream, with ties everywhere and Rank fields that disagree with the
// shard they were emitted on.
func TestDataEventsMatchesStableSort(t *testing.T) {
	d := &Data{PerRank: make([][]Event, 5)}
	var want []Event
	for shard := range d.PerRank {
		for i := 0; i < 200; i++ {
			e := Event{Rank: int32((shard + i) % 3), Start: vclock.Time((i*7 + shard) % 11), A0: int64(shard), A1: int64(i)}
			d.PerRank[shard] = append(d.PerRank[shard], e)
		}
		want = append(want, d.PerRank[shard]...)
	}
	sort.SliceStable(want, func(i, j int) bool {
		if want[i].Start != want[j].Start {
			return want[i].Start < want[j].Start
		}
		return want[i].Rank < want[j].Rank
	})
	if got := d.Events(); !slices.Equal(got, want) {
		t.Fatal("Events() order differs from a stable (Start, Rank) sort of the rank-major stream")
	}
	if d.NumEvents() != len(want) {
		t.Fatalf("NumEvents = %d, want %d", d.NumEvents(), len(want))
	}
}

func TestKindStrings(t *testing.T) {
	for k := KindCompute; k <= KindKill; k++ {
		if k.String() == "unknown" {
			t.Errorf("kind %d has no name", k)
		}
	}
	if Kind(0).String() != "unknown" || Kind(200).String() != "unknown" {
		t.Error("out-of-range kinds must stringify as unknown")
	}
}
