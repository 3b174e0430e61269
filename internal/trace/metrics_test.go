package trace

import (
	"bytes"
	"slices"
	"sync"
	"testing"
)

func TestRegistrySnapshotSortedAndDeterministic(t *testing.T) {
	fill := func() *Registry {
		g := NewRegistry()
		g.Add("zebra", 2)
		g.Add("alpha", 1)
		g.SetGauge("g2", 2.5)
		g.SetGauge("g1", 1.5)
		// Sends of 3, 100 and 1e9 bytes: buckets le=4, le=256 and the overflow.
		g.FillFromData(&Data{PerRank: [][]Event{{{Kind: KindSend, Bytes: 3}, {Kind: KindSend, Bytes: 100}, {Kind: KindSend, Bytes: 1e9}}}})
		return g
	}
	s := fill().Snapshot()
	var names []string
	for _, c := range s.Counters {
		names = append(names, c.Name)
	}
	if want := []string{"alpha", "events_send_total", "trace_dropped_events_total", "trace_unclosed_regions_total", "zebra"}; !slices.Equal(names, want) {
		t.Fatalf("counters = %+v, want the names %v", s.Counters, want)
	}
	if len(s.Gauges) != 3 || s.Gauges[0].Name != "g1" {
		t.Fatalf("gauges = %+v", s.Gauges)
	}
	if len(s.Histograms) != 1 {
		t.Fatalf("histograms = %+v", s.Histograms)
	}
	h := s.Histograms[0]
	if h.Count != 3 || h.Sum != 3+100+1e9 {
		t.Fatalf("histogram = %+v", h)
	}
	if len(h.Buckets) != 3 || h.Buckets[len(h.Buckets)-1].LE != -1 {
		t.Fatalf("buckets = %+v", h.Buckets)
	}
	var a, b bytes.Buffer
	if err := fill().Snapshot().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := fill().Snapshot().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("two identical registries serialised differently")
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	g := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				g.Add("c", 1)
				g.FillFromData(&Data{PerRank: [][]Event{{{Kind: KindSend, Bytes: int64(j)}}}})
			}
		}()
	}
	wg.Wait()
	s := g.Snapshot()
	if s.Counters[0].Value != 800 {
		t.Fatalf("counter = %d, want 800", s.Counters[0].Value)
	}
	if s.Histograms[0].Count != 800 {
		t.Fatalf("histogram count = %d, want 800", s.Histograms[0].Count)
	}
}

func TestFillFromData(t *testing.T) {
	d := testData()
	g := NewRegistry()
	g.FillFromData(d)
	s := g.Snapshot()
	get := func(name string) int64 {
		for _, c := range s.Counters {
			if c.Name == name {
				return c.Value
			}
		}
		return -1
	}
	if got := get("events_send_total"); got != 1 {
		t.Errorf("send counter = %d, want 1", got)
	}
	if got := get("events_coll_total"); got != 2 {
		t.Errorf("coll counter = %d, want 2", got)
	}
	var makespan float64
	for _, gg := range s.Gauges {
		if gg.Name == "trace_makespan_s" {
			makespan = gg.Value
		}
	}
	if makespan != float64(d.Makespan()) {
		t.Errorf("makespan gauge = %v, want %v", makespan, d.Makespan())
	}
	if len(s.Histograms) != 1 || s.Histograms[0].Name != "send_bytes" || s.Histograms[0].Count != 1 {
		t.Errorf("send_bytes histogram = %+v", s.Histograms)
	}
}
