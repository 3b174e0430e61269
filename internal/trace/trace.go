// Package trace is the observability subsystem of the HMPI reproduction:
// a low-overhead structured event recorder threaded through the message
// passing library (internal/mpi), the HMPI runtime (internal/hmpi) and the
// fault injector (internal/chaos), plus exporters (Chrome trace-event
// JSON, a compact binary format), trace analyses (per-link traffic
// matrices, per-rank activity breakdown, critical-path extraction over the
// happens-before graph) and a predicted-vs-observed report that replays a
// trace through the cost models of internal/estimator.
//
// Recording model: one shard per world rank, each a ring of Event values
// that starts empty, grows by doubling up to Options.ShardCap and then
// overwrites its oldest entry, so a run pays for the events it emits and
// not for the ones it might. Every event is emitted by the goroutine of
// the rank it describes (simulated processes are goroutine-confined), so
// each shard has exactly one writer and appends without locks; the
// published count is an atomic so concurrent metadata reads (Dropped)
// see a consistent value. A count-only recorder (Options.CountOnly) keeps
// no ring: each shard folds its events into a fixed-size tally of what
// Registry.FillFromData reports, exact for any run length and never
// allocating. When the recorder is not attached the instrumentation in
// mpi/hmpi is a single nil check — zero allocations, no atomic traffic.
//
// Ownership rule (see bufpool.go in internal/mpi): events never
// retain message payloads. An Event carries the byte count and metadata
// only — structurally, there is no []byte field to alias a pooled buffer —
// so tracing composes with the copy-on-retain buffer pools.
package trace

import (
	"cmp"
	"encoding/json"
	"math"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/vclock"
)

// Kind classifies trace events.
type Kind uint8

// Event kinds. Compute/Send/Recv are the point activity of the simulation
// core; Coll wraps one collective call with its resolved algorithm; Region
// and Predict are application-level phase markers; the rest are runtime
// lifecycle events (group management, Recon, fault tolerance).
const (
	KindCompute Kind = 1 + iota
	KindSend
	KindRecv
	KindColl
	KindRegion
	KindPredict
	KindRecon
	KindGroupCreate
	KindGroupFree
	KindGroupRecreate
	KindRevoke
	KindAgree
	KindShrink
	KindKill
	KindLinkFault
	KindRetransmit
	KindDegrade
	KindIsend
	KindIrecv
	KindWait
	KindTest
)

var kindNames = [...]string{
	KindCompute:       "compute",
	KindSend:          "send",
	KindRecv:          "recv",
	KindColl:          "coll",
	KindRegion:        "region",
	KindPredict:       "predict",
	KindRecon:         "recon",
	KindGroupCreate:   "group_create",
	KindGroupFree:     "group_free",
	KindGroupRecreate: "group_recreate",
	KindRevoke:        "revoke",
	KindAgree:         "agree",
	KindShrink:        "shrink",
	KindKill:          "kill",
	KindLinkFault:     "link_fault_injected",
	KindRetransmit:    "retransmit",
	KindDegrade:       "degrade_reselect",
	KindIsend:         "isend",
	KindIrecv:         "irecv",
	KindWait:          "wait",
	KindTest:          "test",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one recorded occurrence on one rank. Fixed-size except for
// Name, which hot paths set only to constant strings (no per-event
// formatting, no allocation). Aux fields A0..A3 carry kind-specific
// values; see the emitting sites. Payload bytes are counted, never
// referenced.
type Event struct {
	Rank  int32
	Kind  Kind
	Peer  int32 // partner world rank, -1 when not applicable
	Tag   int32
	Ctx   int64 // communicator context id or group key
	Bytes int64
	Start vclock.Time
	End   vclock.Time
	// WallStart/WallEnd are host nanoseconds since the recorder was
	// created: the wall-clock timeline, for measuring simulation overhead
	// (the virtual timeline is deterministic; the wall one is not).
	WallStart int64
	WallEnd   int64
	Name      string
	A0        int64
	A1        int64
	A2        int64
	A3        int64
}

// FloatBits packs a float64 into an aux field.
func FloatBits(f float64) int64 { return int64(math.Float64bits(f)) }

// BitsFloat unpacks an aux field written with FloatBits.
func BitsFloat(v int64) float64 { return math.Float64frombits(uint64(v)) }

// Options tune a Recorder.
type Options struct {
	// ShardCap is the number of events retained per rank; older events
	// are overwritten and counted as dropped. Zero means the default
	// (16384 events/rank).
	ShardCap int
	// CountOnly keeps no events: Emit folds each into its rank's tally
	// and Condense reports the tallies. Data then holds no events, and
	// nothing is ever dropped.
	CountOnly bool
}

const (
	defaultShardCap = 1 << 14
	// shardBlock is a shard's first allocation, in events; each later one
	// doubles the shard until it reaches its cap.
	shardBlock = 64
)

// Meta describes a recorded run: enough context to analyse the trace
// without the live runtime (the binary format embeds it, so a trace file
// is self-contained).
type Meta struct {
	App       string            `json:"app,omitempty"`
	Labels    map[string]string `json:"labels,omitempty"`
	NRanks    int               `json:"nranks"`
	Placement []int             `json:"placement,omitempty"` // world rank -> machine index
	Cluster   json.RawMessage   `json:"cluster,omitempty"`   // hnoc.Cluster JSON
	Dropped   int64             `json:"dropped,omitempty"`
	Unclosed  int64             `json:"unclosed_regions,omitempty"`
	Unmatched int64             `json:"unmatched_region_ends,omitempty"`
}

// regionFrame is one open Region on a rank's stack.
type regionFrame struct {
	name  string
	start vclock.Time
	wall  int64
}

// shard is the per-rank ring buffer. Single writer (the rank's own
// goroutine); n is atomic so post-run readers and metric snapshots load a
// published count. events holds min(n, cap) retained events in a slice
// that is reallocated as it grows, so only the writer, or a reader after
// the run, may touch it. A count-only recorder folds events into tally.
type shard struct {
	events  []Event
	cap     int64        // retention bound: len(events) never exceeds it
	n       atomic.Int64 // total emitted (monotone; retained = min(n, cap))
	tally   tally
	regions []regionFrame
	badEnds atomic.Int64 // RegionEnd calls with no matching begin
}

// Recorder collects events for every rank of one world. Create with
// NewRecorder, attach via mpi.World.SetRecorder (or the runtime helpers),
// read after the run with Data.
type Recorder struct {
	start     time.Time
	shards    []shard
	meta      Meta
	countOnly bool
}

// NewRecorder creates a recorder for nranks ranks.
func NewRecorder(nranks int, opts Options) *Recorder {
	cap := opts.ShardCap
	if cap <= 0 {
		cap = defaultShardCap
	}
	r := &Recorder{start: time.Now(), shards: make([]shard, nranks), countOnly: opts.CountOnly}
	r.meta.NRanks = nranks
	for i := range r.shards {
		r.shards[i].cap = int64(cap)
	}
	return r
}

// NowNS returns host nanoseconds since the recorder was created, the
// wall-clock timeline of WallStart/WallEnd. A count-only recorder keeps
// no event and its tally reads no wall time, so there it returns 0 and
// reads no clock.
func (r *Recorder) NowNS() int64 {
	if r.countOnly {
		return 0
	}
	return time.Since(r.start).Nanoseconds()
}

// Emit records one event on rank's shard. Must be called from the
// goroutine owning that rank (the simulation confines each rank to one
// goroutine, so every instrumentation site satisfies this for free). It
// allocates only when the shard grows, and never on a count-only recorder.
func (r *Recorder) Emit(rank int, e Event) {
	s := &r.shards[rank]
	if r.countOnly {
		s.tally.add(&e)
		return
	}
	n := s.n.Load()
	if n == int64(len(s.events)) && n < s.cap {
		grown := make([]Event, min(max(2*n, shardBlock), s.cap))
		copy(grown, s.events)
		s.events = grown
	}
	s.events[n%s.cap] = e
	s.n.Store(n + 1)
}

// RegionBegin opens a named application phase on rank at virtual time
// now. Regions nest; each begin must be matched by a RegionEnd with the
// same name on the same rank. Data counts the begins left open
// (Meta.Unclosed) and the ends that matched none (Meta.Unmatched), and
// hmpiverify's regions check reports both.
func (r *Recorder) RegionBegin(rank int, name string, now vclock.Time) {
	s := &r.shards[rank]
	s.regions = append(s.regions, regionFrame{name: name, start: now, wall: r.NowNS()})
}

// RegionEnd closes the innermost open region with the given name on rank
// and emits the Region event. An end with no matching begin is counted
// (Meta.Unmatched) and otherwise ignored.
func (r *Recorder) RegionEnd(rank int, name string, now vclock.Time) {
	s := &r.shards[rank]
	for i := len(s.regions) - 1; i >= 0; i-- {
		if s.regions[i].name != name {
			continue
		}
		f := s.regions[i]
		s.regions = append(s.regions[:i], s.regions[i+1:]...)
		r.Emit(rank, Event{
			Rank: int32(rank), Kind: KindRegion, Peer: -1, Name: name,
			Start: f.start, End: now, WallStart: f.wall, WallEnd: r.NowNS(),
		})
		return
	}
	s.badEnds.Add(1)
}

// Predict records a prediction event: the model's forecast (seconds of
// virtual time) for one occurrence of the named phase. The report matches
// it against the observed durations of Region events with the same name.
func (r *Recorder) Predict(rank int, name string, seconds float64, now vclock.Time) {
	r.Emit(rank, Event{
		Rank: int32(rank), Kind: KindPredict, Peer: -1, Name: name,
		Start: now, End: now, WallStart: r.NowNS(), WallEnd: r.NowNS(),
		A0: FloatBits(seconds),
	})
}

// SetMeta replaces the descriptive metadata attached to exported traces.
// Call before or after the run, not concurrently with Data.
func (r *Recorder) SetMeta(m Meta) {
	if m.NRanks == 0 {
		m.NRanks = len(r.shards)
	}
	r.meta = m
}

// Condense writes into g, from a count-only recorder's tallies, what
// FillFromData(r.Data()) writes for a retaining recorder of the same run,
// and returns the number of events emitted and their latest End. Call
// after the run; a retaining recorder's tallies are empty.
func (r *Recorder) Condense(g *Registry) (events int64, makespan vclock.Time) {
	var t tally
	var unclosed int64
	for i := range r.shards {
		t.merge(&r.shards[i].tally)
		unclosed += int64(len(r.shards[i].regions))
	}
	return t.fill(g, 0, unclosed), t.end
}

// Dropped returns the number of events lost to ring overwrites so far.
func (r *Recorder) Dropped() int64 {
	var d int64
	for i := range r.shards {
		s := &r.shards[i]
		if n := s.n.Load(); n > s.cap {
			d += n - s.cap
		}
	}
	return d
}

// unwrap copies a wrapped ring out oldest first; the oldest retained
// event sits at n % cap.
func (s *shard) unwrap(n int64) []Event {
	head := n % s.cap
	return slices.Concat(s.events[head:], s.events[:head])
}

// Data snapshots the recorder into an analysable, exportable form. Call
// after the run completes: concurrent emission would race on slot
// contents, and a shard that has not wrapped is handed over as it lies,
// not copied, so events emitted afterwards would show through once it
// does wrap.
func (r *Recorder) Data() *Data {
	d := &Data{Meta: r.meta, PerRank: make([][]Event, len(r.shards))}
	d.Meta.NRanks = len(r.shards)
	for i := range r.shards {
		s := &r.shards[i]
		if n := s.n.Load(); n <= s.cap {
			d.PerRank[i] = s.events[:n:n]
		} else {
			d.PerRank[i] = s.unwrap(n)
		}
		d.Meta.Unclosed += int64(len(s.regions))
		d.Meta.Unmatched += s.badEnds.Load()
	}
	d.Meta.Dropped = r.Dropped()
	return d
}

// Data is a snapshot of a recorded run: metadata plus per-rank events in
// emission order. It is what the exporters write and the analyses read.
type Data struct {
	Meta    Meta
	PerRank [][]Event
}

// NumRanks returns the number of ranks in the snapshot.
func (d *Data) NumRanks() int { return len(d.PerRank) }

// NumEvents returns the number of events in the snapshot, len(d.Events())
// without the merge.
func (d *Data) NumEvents() int {
	var total int
	for _, evs := range d.PerRank {
		total += len(evs)
	}
	return total
}

// EachEvent calls fn for every event, rank-major in per-rank emission
// order, stopping early when fn returns false. It is the iteration hook
// external consumers (the hmpiverify replayer) use, so they need no
// knowledge of the PerRank layout.
func (d *Data) EachEvent(fn func(rank int, e Event) bool) {
	for rank, evs := range d.PerRank {
		for i := range evs {
			if !fn(rank, evs[i]) {
				return
			}
		}
	}
}

// Events returns all events merged across ranks, sorted by virtual start
// time with rank as the tie-break and per-rank emission order preserved —
// a deterministic order for a deterministic simulation, which is what
// makes the Chrome export golden-testable. It sorts one compact key per
// event and gathers the events once; the key's position in the rank-major
// stream makes the order total, so no stable sort is needed.
func (d *Data) Events() []Event {
	type key struct {
		start vclock.Time
		rank  int32  // the event's Rank field, the documented tie-break
		pos   uint64 // shard<<32 | index: where the event lies in PerRank
	}
	keys := make([]key, 0, d.NumEvents())
	for shard, evs := range d.PerRank {
		for i := range evs {
			keys = append(keys, key{evs[i].Start, evs[i].Rank, uint64(shard)<<32 | uint64(i)})
		}
	}
	slices.SortFunc(keys, func(a, b key) int {
		switch {
		case a.start < b.start:
			return -1
		case a.start > b.start:
			return 1
		case a.rank != b.rank:
			return cmp.Compare(a.rank, b.rank)
		}
		return cmp.Compare(a.pos, b.pos)
	})
	out := make([]Event, len(keys))
	for i, k := range keys {
		out[i] = d.PerRank[k.pos>>32][uint32(k.pos)]
	}
	return out
}

// Makespan returns the maximum event end time in the snapshot.
func (d *Data) Makespan() vclock.Time {
	var max vclock.Time
	for _, evs := range d.PerRank {
		for i := range evs {
			if evs[i].End > max {
				max = evs[i].End
			}
		}
	}
	return max
}
