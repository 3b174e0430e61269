package trace

// Chrome trace-event JSON exporter: writes the snapshot in the format
// chrome://tracing and Perfetto load directly. Durationful events become
// complete ("X") events, point events become instants ("i"); each rank is
// one thread of one process, named via metadata events.
//
// Output is deterministic for a deterministic simulation: events are the
// stable (Start, Rank) order of Data.Events, struct field order pins the
// JSON field order, and the virtual timeline carries no wall-clock values.

import (
	"encoding/json"
	"fmt"
	"io"
)

// Timeline selects which clock the exported timestamps come from.
type Timeline int

const (
	// TimelineVirtual exports simulated seconds (deterministic).
	TimelineVirtual Timeline = iota
	// TimelineWall exports host nanoseconds since recorder creation (for
	// measuring where the simulation itself spends real time).
	TimelineWall
)

// chromeEvent is one trace-event entry. Field order is the serialised
// order — keep name/cat/ph/ts first so the output diffs well.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

// chromeFile is the top-level JSON object.
type chromeFile struct {
	Events          []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	Metadata        *Meta         `json:"otherData,omitempty"`
}

// instantKinds are exported as "i" events (no meaningful duration).
func instantKind(k Kind) bool {
	switch k {
	case KindPredict, KindGroupFree, KindRevoke, KindKill:
		return true
	}
	return false
}

// chromeName labels one event in the viewer.
func chromeName(e *Event) string {
	if e.Name != "" {
		return e.Name
	}
	return e.Kind.String()
}

// WriteChrome serialises the snapshot as Chrome trace-event JSON on the
// chosen timeline.
func WriteChrome(w io.Writer, d *Data, tl Timeline) error {
	f := chromeFile{DisplayTimeUnit: "ms"}
	meta := d.Meta
	f.Metadata = &meta
	// Thread naming metadata first, in rank order.
	f.Events = append(f.Events, chromeEvent{
		Name: "process_name", Cat: "__metadata", Ph: "M", Pid: 0, Tid: 0,
		Args: map[string]any{"name": processName(&meta)},
	})
	for r := 0; r < d.NumRanks(); r++ {
		name := fmt.Sprintf("rank %d", r)
		if meta.Placement != nil && r < len(meta.Placement) {
			name = fmt.Sprintf("rank %d (machine %d)", r, meta.Placement[r])
		}
		f.Events = append(f.Events, chromeEvent{
			Name: "thread_name", Cat: "__metadata", Ph: "M", Pid: 0, Tid: r,
			Args: map[string]any{"name": name},
		})
	}
	for _, e := range d.Events() {
		ts, dur := timestamps(&e, tl)
		ce := chromeEvent{
			Name: chromeName(&e),
			Cat:  e.Kind.String(),
			Pid:  0,
			Tid:  int(e.Rank),
			Ts:   ts,
			Args: chromeArgs(&e),
		}
		if instantKind(e.Kind) || dur == 0 {
			ce.Ph = "i"
			ce.S = "t"
		} else {
			ce.Ph = "X"
			d := dur
			ce.Dur = &d
		}
		f.Events = append(f.Events, ce)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(f)
}

// timestamps converts one event to (ts, dur) microseconds on the chosen
// timeline.
func timestamps(e *Event, tl Timeline) (ts, dur float64) {
	if tl == TimelineWall {
		return float64(e.WallStart) / 1e3, float64(e.WallEnd-e.WallStart) / 1e3
	}
	return float64(e.Start) * 1e6, float64(e.End-e.Start) * 1e6
}

// chromeArgs builds the viewer's detail pane for one event. Only
// deterministic values go in (no wall times), so the virtual export is
// byte-stable; encoding/json sorts map keys.
func chromeArgs(e *Event) map[string]any {
	args := map[string]any{}
	if e.Peer >= 0 {
		args["peer"] = int(e.Peer)
	}
	if e.Bytes > 0 {
		args["bytes"] = e.Bytes
	}
	switch e.Kind {
	case KindSend, KindRecv:
		args["tag"] = int(e.Tag)
		args["ctx"] = e.Ctx
	case KindColl:
		args["ctx"] = e.Ctx
	case KindPredict:
		args["predicted_s"] = BitsFloat(e.A0)
	case KindRecon:
		args["speed"] = BitsFloat(e.A0)
	case KindGroupCreate, KindGroupRecreate:
		args["key"] = e.Ctx
		args["predicted_s"] = BitsFloat(e.A0)
		args["evaluations"] = e.A1
		args["cache_hits"] = e.A2
		args["pruned"] = e.A3
	case KindGroupFree, KindRevoke, KindAgree, KindShrink:
		args["ctx"] = e.Ctx
	}
	if len(args) == 0 {
		return nil
	}
	return args
}

func processName(m *Meta) string {
	if m.App != "" {
		return "hmpi: " + m.App
	}
	return "hmpi"
}
