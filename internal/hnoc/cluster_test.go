package hnoc

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"testing/quick"
)

func TestPaper9Shape(t *testing.T) {
	c := Paper9()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Size() != 9 {
		t.Fatalf("Paper9 has %d machines, want 9", c.Size())
	}
	want := []float64{46, 46, 46, 46, 46, 46, 176, 106, 9}
	for i, m := range c.Machines {
		if m.Speed != want[i] {
			t.Errorf("machine %d speed = %v, want %v", i, m.Speed, want[i])
		}
	}
	// Remote link is 100 Mbit-class Ethernet.
	if c.Remote.Protocol != ProtoTCP {
		t.Errorf("remote protocol = %q, want tcp", c.Remote.Protocol)
	}
	if c.Remote.Bandwidth < 10e6 || c.Remote.Bandwidth > 12.5e6 {
		t.Errorf("remote bandwidth %v outside 100Mbit range", c.Remote.Bandwidth)
	}
}

func TestLinkSelection(t *testing.T) {
	c := Paper9()
	if got := c.Link(0, 0).Protocol; got != ProtoSHM {
		t.Errorf("same-machine link protocol = %q, want shm", got)
	}
	if got := c.Link(0, 1).Protocol; got != ProtoTCP {
		t.Errorf("cross-machine link protocol = %q, want tcp", got)
	}
	c.Overrides = append(c.Overrides, LinkOverride{
		A: 1, B: 2,
		Link: LinkSpec{Protocol: ProtoUDP, Latency: 1e-6, Bandwidth: 1e9},
	})
	if got := c.Link(1, 2).Protocol; got != ProtoUDP {
		t.Errorf("overridden link protocol = %q, want udp", got)
	}
	if got := c.Link(2, 1).Protocol; got != ProtoUDP {
		t.Errorf("override is not symmetric: (2,1) protocol = %q", got)
	}
	if got := c.Link(1, 3).Protocol; got != ProtoTCP {
		t.Errorf("non-overridden pair affected: (1,3) protocol = %q", got)
	}
}

func TestTransferTime(t *testing.T) {
	l := LinkSpec{Bandwidth: 1e6}
	if got := l.TransferTime(2e6); got != 2 {
		t.Fatalf("TransferTime(2MB @ 1MB/s) = %v, want 2", got)
	}
	if got := l.TransferTime(0); got != 0 {
		t.Fatalf("TransferTime(0) = %v, want 0", got)
	}
	if got := l.TransferTime(-5); got != 0 {
		t.Fatalf("TransferTime(-5) = %v, want 0", got)
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Cluster)
	}{
		{"no machines", func(c *Cluster) { c.Machines = nil }},
		{"empty name", func(c *Cluster) { c.Machines[0].Name = "" }},
		{"duplicate name", func(c *Cluster) { c.Machines[1].Name = c.Machines[0].Name }},
		{"zero speed", func(c *Cluster) { c.Machines[0].Speed = 0 }},
		{"negative speed", func(c *Cluster) { c.Machines[0].Speed = -3 }},
		{"zero bandwidth", func(c *Cluster) { c.Remote.Bandwidth = 0 }},
		{"negative latency", func(c *Cluster) { c.Local.Latency = -1 }},
		{"override out of range", func(c *Cluster) {
			c.Overrides = append(c.Overrides, LinkOverride{A: 0, B: 99, Link: Ethernet100()})
		}},
		{"override zero bandwidth", func(c *Cluster) {
			c.Overrides = append(c.Overrides, LinkOverride{A: 0, B: 1})
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := Paper9()
			tc.mut(c)
			if err := c.Validate(); err == nil {
				t.Fatalf("Validate accepted invalid cluster (%s)", tc.name)
			}
		})
	}
}

func TestEffectiveSpeedUnderLoad(t *testing.T) {
	m := Machine{Name: "x", Speed: 100, Load: ConstantLoad{Fraction: 0.5}}
	if got := m.ComputeFinish(42, 50); got != 43 {
		t.Fatalf("50 units at half of speed 100 from t=42 finish at %v, want 43", got)
	}
	idle := Machine{Name: "y", Speed: 100}
	if got := idle.ComputeFinish(0, 100); got != 1 {
		t.Fatalf("100 units on an idle machine of speed 100 finish at %v, want 1", got)
	}
}

func TestComputeFinishIdle(t *testing.T) {
	m := Machine{Name: "x", Speed: 50}
	if got := m.ComputeFinish(10, 100); got != 12 {
		t.Fatalf("ComputeFinish = %v, want 12", got)
	}
	if got := m.ComputeFinish(10, 0); got != 10 {
		t.Fatalf("ComputeFinish(0 work) = %v, want 10", got)
	}
}

func TestComputeFinishStepLoad(t *testing.T) {
	// Full speed until t=10, half speed afterwards.
	m := Machine{
		Name:  "x",
		Speed: 1,
		Load:  NewStepLoad(Step{Start: 10, Fraction: 0.5}),
	}
	// 5 units starting at 0 finish at 5, entirely before the step.
	if got := m.ComputeFinish(0, 5); got != 5 {
		t.Fatalf("pre-step ComputeFinish = %v, want 5", got)
	}
	// 15 units starting at 0: 10 done by t=10, then 5 more at half speed.
	if got := m.ComputeFinish(0, 15); got != 20 {
		t.Fatalf("straddling ComputeFinish = %v, want 20", got)
	}
	// Starting inside the loaded region.
	if got := m.ComputeFinish(10, 5); got != 20 {
		t.Fatalf("in-step ComputeFinish = %v, want 20", got)
	}
}

func TestStepLoadAvailable(t *testing.T) {
	l := NewStepLoad(Step{Start: 5, Fraction: 0.25}, Step{Start: 2, Fraction: 0.5})
	for _, tc := range []struct{ t, want float64 }{
		{0, 1}, {1.99, 1}, {2, 0.5}, {4.5, 0.5}, {5, 0.25}, {100, 0.25},
	} {
		if got := l.Available(tc.t); got != tc.want {
			t.Errorf("Available(%v) = %v, want %v", tc.t, got, tc.want)
		}
	}
}

func TestSineLoadBounds(t *testing.T) {
	l := SineLoad{Base: 0.6, Amplitude: 0.5, Period: 10}
	for x := 0.0; x < 30; x += 0.3 {
		v := l.Available(x)
		if v <= 0 || v > 1 {
			t.Fatalf("SineLoad Available(%v) = %v outside (0,1]", x, v)
		}
	}
}

// Property: FinishTime is consistent with Available — work accomplished over
// [t, FinishTime(t,w)] approximately equals w — and monotone in work.
func TestFinishTimeProperties(t *testing.T) {
	profiles := []LoadProfile{
		ConstantLoad{Fraction: 0.7},
		NewStepLoad(Step{Start: 3, Fraction: 0.2}, Step{Start: 8, Fraction: 0.9}),
		SineLoad{Base: 0.6, Amplitude: 0.3, Period: 7},
	}
	f := func(t0u, wu uint16) bool {
		t0 := float64(t0u) / 100
		w := float64(wu)/100 + 0.01
		for _, p := range profiles {
			end := p.FinishTime(t0, w)
			if end <= t0 {
				return false
			}
			// Work done must be close to requested (numeric profiles get
			// a looser tolerance).
			done := integrateAvailable(p, t0, end)
			if math.Abs(done-w) > 0.02*w+0.02 {
				return false
			}
			// Monotonicity in work.
			if p.FinishTime(t0, w*2) < end {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func integrateAvailable(p LoadProfile, a, b float64) float64 {
	const n = 4000
	h := (b - a) / n
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += p.Available(a+(float64(i)+0.5)*h) * h
	}
	return sum
}

func TestClusterJSONRoundTrip(t *testing.T) {
	c := Paper9()
	c.Machines[2].Load = ConstantLoad{Fraction: 0.5}
	c.Machines[3].Load = NewStepLoad(Step{Start: 1, Fraction: 0.25})
	c.Machines[4].Load = SineLoad{Base: 0.5, Amplitude: 0.25, Period: 4}
	c.Overrides = []LinkOverride{{A: 0, B: 1, Link: LinkSpec{Protocol: ProtoUDP, Latency: 1e-5, Bandwidth: 5e6}}}

	data, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/cluster.json"
	if err := writeFile(path, string(data)); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Size() != c.Size() {
		t.Fatalf("round trip changed size: %d != %d", got.Size(), c.Size())
	}
	for i := range c.Machines {
		if got.Machines[i].Name != c.Machines[i].Name || got.Machines[i].Speed != c.Machines[i].Speed {
			t.Errorf("machine %d changed: %+v != %+v", i, got.Machines[i], c.Machines[i])
		}
	}
	// Load profiles behave identically.
	for i := range c.Machines {
		for _, x := range []float64{0, 0.5, 1, 2, 3, 10} {
			a := c.Machines[i].ComputeFinish(x, 1)
			b := got.Machines[i].ComputeFinish(x, 1)
			if math.Abs(a-b) > 1e-12 {
				t.Fatalf("machine %d load differs after round trip at t=%v: %v != %v", i, x, a, b)
			}
		}
	}
	if got.Link(0, 1).Protocol != ProtoUDP {
		t.Error("override lost in round trip")
	}
}

func TestLoadFileErrors(t *testing.T) {
	if _, err := LoadFile("/nonexistent/cluster.json"); err == nil {
		t.Error("LoadFile of missing file succeeded")
	}
	path := t.TempDir() + "/bad.json"
	if err := writeFile(path, "{not json"); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(path); err == nil {
		t.Error("LoadFile of malformed file succeeded")
	}
}

func TestCloneIsDeep(t *testing.T) {
	c := Paper9()
	d := c.Clone()
	d.Machines[0].Speed = 999
	d.Remote.Bandwidth = 1
	if c.Machines[0].Speed == 999 || c.Remote.Bandwidth == 1 {
		t.Fatal("Clone shares mutable state with original")
	}
}

func TestHomogeneousCluster(t *testing.T) {
	c := Homogeneous(5, 100)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Size() != 5 {
		t.Fatalf("size = %d", c.Size())
	}
	for _, m := range c.Machines {
		if m.Speed != 100 {
			t.Fatalf("speed = %v, want 100", m.Speed)
		}
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

func TestFatNodeTopology(t *testing.T) {
	c, place := FatNode3x8()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if c.Size() != 3 || len(place) != 24 {
		t.Fatalf("size = %d, placement %d ranks", c.Size(), len(place))
	}
	// Rank blocks: 8 processes per machine, in machine order.
	for r, m := range place {
		if m != r/8 {
			t.Fatalf("rank %d placed on machine %d, want %d", r, m, r/8)
		}
	}
	// Each machine's self-override is its own bus, distinct per machine
	// and visible through Link despite i == j.
	buses := []float64{800e6, 600e6, 400e6}
	for i, bw := range buses {
		l := c.Link(i, i)
		if l.Protocol != ProtoSHM || l.Bandwidth != bw {
			t.Errorf("machine %d bus = %+v, want shm at %v B/s", i, l, bw)
		}
	}
	// Cross-machine pairs ride the Ethernet, both directions.
	for i := 0; i < c.Size(); i++ {
		for j := 0; j < c.Size(); j++ {
			if i == j {
				continue
			}
			if got := c.Link(i, j); got.Protocol != ProtoTCP || got.Bandwidth != Ethernet100().Bandwidth {
				t.Errorf("link(%d,%d) = %+v, want the remote Ethernet", i, j, got)
			}
		}
	}
	// The buses must be genuinely faster than the LAN — the regime the
	// two-level collectives are built for.
	for i := range c.Machines {
		if c.Link(i, i).Bandwidth <= c.Remote.Bandwidth {
			t.Errorf("machine %d bus no faster than the LAN", i)
		}
	}
}

func TestFatNodesValidation(t *testing.T) {
	// A machine without a bus override falls back to the default Local
	// shared-memory link; a zero-bandwidth local spec means "no override".
	c, place := FatNodes(
		[]float64{10, 20},
		[]int{1, 3},
		[]LinkSpec{{}, {Protocol: ProtoSHM, Latency: 1e-6, Bandwidth: 5e8}},
		Ethernet100(),
	)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if want := []int{0, 1, 1, 1}; len(place) != len(want) {
		t.Fatalf("placement %v", place)
	}
	if got := c.Link(0, 0); got != SharedMemory() {
		t.Errorf("machine 0 link = %+v, want the default shared memory", got)
	}
	if got := c.Link(1, 1).Bandwidth; got != 5e8 {
		t.Errorf("machine 1 bus bandwidth = %v, want 5e8", got)
	}
	// Mismatched argument lengths fail loudly.
	defer func() {
		if recover() == nil {
			t.Fatal("FatNodes with mismatched lengths did not panic")
		}
	}()
	FatNodes([]float64{1, 2}, []int{1}, []LinkSpec{{}, {}}, Ethernet100())
}
