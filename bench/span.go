package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call from the benchmark into a layer of the program.
// Spans of one op share op_id; parent is the index of the enclosing span
// in the buffer, or -1.
type span struct {
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	OpID    int    `json:"op_id"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer is the in-memory span buffer of a traced run. A nil *tracer is
// tracing switched off: begin and end are then no-ops, which is how the
// end-to-end metrics are always measured.
type tracer struct {
	mu     sync.Mutex
	epoch  time.Time
	spans  []span
	counts map[string]int64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), counts: make(map[string]int64)}
}

// begin opens a span and returns its index (-1 when tracing is off).
func (t *tracer) begin(name, layer string, opID, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Layer: layer, OpID: opID, Parent: parent, StartNS: now, EndNS: -1})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNS = now
	t.mu.Unlock()
}

// count adds to a named counter recorded next to the spans.
func (t *tracer) count(name string, delta int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += delta
	t.mu.Unlock()
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its direct children cover (overlapping children are
// counted once).
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].StartNS < spans[kids[b]].StartNS })
		covered, edge := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(spans[k].StartNS, edge), min(spans[k].EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] = s.EndNS - s.StartNS - covered
	}
	return self
}

// traceFile is what a traced run leaves behind for inspection.
type traceFile struct {
	Workload string           `json:"workload"`
	Seed     uint64           `json:"seed"`
	Counts   map[string]int64 `json:"counts"`
	SelfNS   map[string]int64 `json:"self_ns_by_layer"`
	Spans    []span           `json:"spans"`
}

// write stores the buffer as <dir>/trace-<workload>.json.
func (t *tracer) write(dir, workload string, seed uint64) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	byLayer := make(map[string]int64)
	for i, ns := range selfTimes(t.spans) {
		byLayer[t.spans[i].Layer] += ns
	}
	data, err := json.Marshal(traceFile{Workload: workload, Seed: seed, Counts: t.counts, SelfNS: byLayer, Spans: t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}
