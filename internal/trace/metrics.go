package trace

// A small metrics registry — counters, gauges, histograms — for
// machine-readable run statistics. hmpirun and hmpibench fill one from
// world statistics and trace data and emit it as JSON, so chaos and bench
// runs can be consumed by scripts instead of scraped from stdout.
//
// Snapshots are deterministic: names are sorted and histograms use fixed
// power-of-two bucket bounds, so two identical simulated runs produce
// byte-identical metric documents.

import (
	"encoding/json"
	"io"
	"sort"
	"sync"

	"repro/internal/vclock"
)

// Registry holds named metrics. Safe for concurrent use; the zero value
// is not ready, use NewRegistry.
type Registry struct {
	mu       sync.Mutex
	counters map[string]int64
	gauges   map[string]float64
	hists    map[string]*histogram
}

// histogram accumulates observations into power-of-four buckets.
type histogram struct {
	counts [len(histBounds) + 1]int64 // per bucket of histBounds, then the +Inf bucket
	sum    float64
	n      int64
}

// histBounds are the fixed histogram bucket upper bounds (inclusive):
// powers of four from 1 to 4^12 ≈ 16.7M, a range that covers both message
// sizes in bytes and durations in microseconds.
var histBounds = func() (b [13]float64) {
	v := 1.0
	for i := range b {
		b[i] = v
		v *= 4
	}
	return b
}()

// observe counts v in the first bucket whose bound holds it, or in the
// +Inf bucket.
func (h *histogram) observe(v float64) {
	i := len(histBounds)
	for j, b := range histBounds {
		if v <= b {
			i = j
			break
		}
	}
	h.counts[i]++
	h.sum += v
	h.n++
}

func (h *histogram) merge(o *histogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.sum += o.sum
	h.n += o.n
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]int64),
		gauges:   make(map[string]float64),
		hists:    make(map[string]*histogram),
	}
}

// Add increments a counter by delta (creating it at zero first).
func (g *Registry) Add(name string, delta int64) {
	g.mu.Lock()
	g.counters[name] += delta
	g.mu.Unlock()
}

// SetGauge sets a gauge to v.
func (g *Registry) SetGauge(name string, v float64) {
	g.mu.Lock()
	g.gauges[name] = v
	g.mu.Unlock()
}

// Bucket is one histogram bucket in a snapshot. LE is the inclusive
// upper bound; -1 encodes +Inf (the overflow bucket).
type Bucket struct {
	LE    float64 `json:"le"`
	Count int64   `json:"count"`
}

// HistogramSnapshot is one histogram in a snapshot.
type HistogramSnapshot struct {
	Name    string   `json:"name"`
	Count   int64    `json:"count"`
	Sum     float64  `json:"sum"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// CounterSnapshot is one counter in a snapshot.
type CounterSnapshot struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeSnapshot is one gauge in a snapshot.
type GaugeSnapshot struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// Snapshot is a point-in-time copy of a registry, ordered for
// deterministic serialisation.
type Snapshot struct {
	Counters   []CounterSnapshot   `json:"counters,omitempty"`
	Gauges     []GaugeSnapshot     `json:"gauges,omitempty"`
	Histograms []HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot captures the registry's current state with sorted names and
// only non-empty buckets.
func (g *Registry) Snapshot() Snapshot {
	g.mu.Lock()
	defer g.mu.Unlock()
	var s Snapshot
	for _, name := range sortedKeys(g.counters) {
		s.Counters = append(s.Counters, CounterSnapshot{Name: name, Value: g.counters[name]})
	}
	for _, name := range sortedKeys(g.gauges) {
		s.Gauges = append(s.Gauges, GaugeSnapshot{Name: name, Value: g.gauges[name]})
	}
	for _, name := range sortedKeys(g.hists) {
		h := g.hists[name]
		hs := HistogramSnapshot{Name: name, Count: h.n, Sum: h.sum}
		for i, b := range histBounds {
			if c := h.counts[i]; c > 0 {
				hs.Buckets = append(hs.Buckets, Bucket{LE: b, Count: c})
			}
		}
		if c := h.counts[len(histBounds)]; c > 0 {
			hs.Buckets = append(hs.Buckets, Bucket{LE: -1, Count: c})
		}
		s.Histograms = append(s.Histograms, hs)
	}
	return s
}

// WriteJSON serialises the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// FillFromData populates standard trace-derived metrics — per-kind event
// counters, a message-size histogram over sends, gauges for makespan and
// drop/unclosed counts — by folding d's events through the tally a
// count-only Recorder keeps per rank (Recorder.Condense).
func (g *Registry) FillFromData(d *Data) {
	var t tally
	for _, evs := range d.PerRank {
		for i := range evs {
			t.add(&evs[i])
		}
	}
	t.fill(g, d.Meta.Dropped, d.Meta.Unclosed)
}

// tally is what FillFromData reports of a stream of events, folded one
// event at a time in fixed space.
type tally struct {
	kinds [len(kindNames)]int64 // events per Kind; unnamed kinds count at 0, "unknown"
	sends histogram             // Bytes of the KindSend events
	end   vclock.Time           // the latest End
}

func (t *tally) add(e *Event) {
	k := int(e.Kind)
	if k >= len(t.kinds) {
		k = 0
	}
	t.kinds[k]++
	if e.Kind == KindSend {
		t.sends.observe(float64(e.Bytes))
	}
	if e.End > t.end {
		t.end = e.End
	}
}

func (t *tally) merge(o *tally) {
	for k, n := range o.kinds {
		t.kinds[k] += n
	}
	t.sends.merge(&o.sends)
	t.end = max(t.end, o.end)
}

// fill writes the tally into g, with the dropped and unclosed counts of
// the run it describes, and returns the number of events it holds.
func (t *tally) fill(g *Registry, dropped, unclosed int64) (events int64) {
	for k, n := range t.kinds {
		if n > 0 {
			g.Add("events_"+Kind(k).String()+"_total", n)
		}
		events += n
	}
	if t.sends.n > 0 {
		g.mu.Lock()
		h := g.hists["send_bytes"]
		if h == nil {
			h = new(histogram)
			g.hists["send_bytes"] = h
		}
		h.merge(&t.sends)
		g.mu.Unlock()
	}
	g.SetGauge("trace_makespan_s", float64(t.end))
	g.Add("trace_dropped_events_total", dropped)
	g.Add("trace_unclosed_regions_total", unclosed)
	return events
}
