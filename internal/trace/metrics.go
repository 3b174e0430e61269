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
	"math"
	"sort"
	"sync"
)

// Registry holds named metrics. Safe for concurrent use; the zero value
// is not ready, use NewRegistry.
type Registry struct {
	mu       sync.Mutex
	counters map[string]int64
	gauges   map[string]float64
	hists    map[string]*histogram
}

// histogram accumulates observations into power-of-two buckets.
type histogram struct {
	counts map[float64]int64 // upper bound -> count (+Inf bucket keyed by -1 in snapshot)
	over   int64             // observations above the largest bound
	sum    float64
	n      int64
}

// histBounds are the fixed histogram bucket upper bounds (inclusive):
// powers of four from 1 to 4^12 ≈ 16.7M, a range that covers both message
// sizes in bytes and durations in microseconds.
var histBounds = func() []float64 {
	var b []float64
	v := 1.0
	for i := 0; i <= 12; i++ {
		b = append(b, v)
		v *= 4
	}
	return b
}()

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

// Observe records one observation into a histogram.
func (g *Registry) Observe(name string, v float64) {
	g.mu.Lock()
	h := g.hists[name]
	if h == nil {
		h = &histogram{counts: make(map[float64]int64)}
		g.hists[name] = h
	}
	placed := false
	for _, b := range histBounds {
		if v <= b {
			h.counts[b]++
			placed = true
			break
		}
	}
	if !placed {
		h.over++
	}
	h.sum += v
	h.n++
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
		for _, b := range histBounds {
			if c := h.counts[b]; c > 0 {
				hs.Buckets = append(hs.Buckets, Bucket{LE: b, Count: c})
			}
		}
		if h.over > 0 {
			hs.Buckets = append(hs.Buckets, Bucket{LE: -1, Count: h.over})
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

// FillFromData populates standard trace-derived metrics: per-kind event
// counters, a message-size histogram over sends, and gauges for makespan
// and drop/unclosed counts.
func (g *Registry) FillFromData(d *Data) {
	var counts [math.MaxUint8 + 1]int64 // by Kind
	for _, evs := range d.PerRank {
		for i := range evs {
			e := &evs[i]
			counts[e.Kind]++
			if e.Kind == KindSend {
				g.Observe("send_bytes", float64(e.Bytes))
			}
		}
	}
	for k, n := range counts {
		if n > 0 {
			g.Add("events_"+Kind(k).String()+"_total", n)
		}
	}
	g.SetGauge("trace_makespan_s", float64(d.Makespan()))
	g.Add("trace_dropped_events_total", d.Meta.Dropped)
	g.Add("trace_unclosed_regions_total", d.Meta.Unclosed)
}
