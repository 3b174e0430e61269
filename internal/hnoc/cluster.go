package hnoc

import (
	"fmt"
	"maps"
	"sync"
	"sync/atomic"
)

// Protocol identifies the network protocol used between a pair of machines.
// A heterogeneous network commonly mixes protocols: processes co-located on
// one machine exchange messages through shared memory, remote processes use
// TCP over the LAN. The standard MPI of 2003 could not mix protocols within
// one application; HMPI's substrate must.
type Protocol string

// Supported protocols.
const (
	ProtoSHM Protocol = "shm" // same-machine shared memory
	ProtoTCP Protocol = "tcp" // LAN, via the Ethernet switch
	ProtoUDP Protocol = "udp" // LAN, lighter-weight datagram path
)

// LinkSpec describes one directed communication channel class.
type LinkSpec struct {
	// Protocol of the channel.
	Protocol Protocol `json:"protocol"`
	// Latency is the per-message start-up cost in seconds.
	Latency float64 `json:"latency"`
	// Bandwidth is the sustained transfer rate in bytes per second.
	Bandwidth float64 `json:"bandwidth"`
	// Overhead is the per-message CPU cost in seconds charged to both the
	// sender and the receiver (the LogP "o" parameter).
	Overhead float64 `json:"overhead"`
}

// TransferTime returns the time the channel needs to move n bytes,
// excluding latency: the sender's interface is busy for this long.
func (l LinkSpec) TransferTime(n int) float64 {
	if n <= 0 {
		return 0
	}
	return float64(n) / l.Bandwidth
}

// Machine is one computer of the network.
type Machine struct {
	// Name identifies the machine in configs and reports.
	Name string `json:"name"`
	// Speed is the nominal speed in benchmark units per second: how many
	// executions of the application's benchmark kernel the machine
	// completes per second when idle. Only ratios between machines
	// matter for group selection.
	Speed float64 `json:"speed"`
	// Load is the external load profile. nil means idle.
	Load LoadProfile `json:"-"`
	// Failed marks a machine that has crashed (fault-tolerance
	// extension). Failed machines are never selected into groups.
	Failed bool `json:"failed,omitempty"`
}

// ComputeFinish returns the time at which `units` benchmark units of
// computation complete on the machine when started at time t, honouring the
// load profile.
func (m *Machine) ComputeFinish(t, units float64) float64 {
	if units <= 0 {
		return t
	}
	work := units / m.Speed // nominal-speed seconds
	if m.Load == nil {
		return t + work
	}
	return m.Load.FinishTime(t, work)
}

// Cluster is a heterogeneous network of computers. Machine pairs on the
// same machine communicate through Local (shared memory); distinct machines
// communicate through Remote unless an explicit per-pair override exists.
// The network is switched: distinct machine pairs transfer in parallel, but
// each machine's interface serialises its own transfers.
type Cluster struct {
	Machines []Machine `json:"machines"`
	// Remote is the default inter-machine link.
	Remote LinkSpec `json:"remote"`
	// Local is the intra-machine (process pairs on one machine) link.
	Local LinkSpec `json:"local"`
	// Overrides lists exceptional machine pairs (by machine index). An
	// override applies in both directions.
	Overrides []LinkOverride `json:"overrides,omitempty"`

	// failMu guards the Failed flags, which the fault-tolerance runtime
	// flips concurrently with readers.
	failMu sync.Mutex

	// degraded holds the per machine-pair slowdown factors observed at
	// run time (chronic link faults noticed by the degradation policy).
	// They affect only ModelLink — the cost model's view — never Link, the
	// simulation's ground truth: degradation is something the runtime
	// *believes* about the network, and the belief steers group selection
	// away from the affected pairs. The map is copy-on-write: DegradeLink
	// stores a new one under degMu, readers load the current one without a
	// lock, and a Clone shares it.
	degMu    sync.Mutex
	degraded atomic.Pointer[map[[2]int]float64]
}

// DegradeLink records that the link between machines i and j behaves
// `factor` times worse than configured (factor > 1; a factor <= 1 clears
// the entry). ModelLink folds the factor into the pair's cost-model view,
// so selection and Timeof predictions route around the pair. Safe for
// concurrent use.
func (c *Cluster) DegradeLink(i, j int, factor float64) {
	if i > j {
		i, j = j, i
	}
	c.degMu.Lock()
	defer c.degMu.Unlock()
	next := make(map[[2]int]float64)
	if old := c.degraded.Load(); old != nil {
		maps.Copy(next, *old)
	}
	if factor <= 1 {
		delete(next, [2]int{i, j})
	} else {
		next[[2]int{i, j}] = factor
	}
	c.degraded.Store(&next)
}

// LinkView is the cost model's view of a cluster's links at one moment:
// the configured specifications worsened by the degradation recorded when
// the view was taken. A later DegradeLink does not show in it, so
// everything priced through one view prices the same network.
type LinkView struct {
	c        *Cluster
	degraded map[[2]int]float64
}

// LinkView returns the cost model's view of the links as they are now.
// Safe for concurrent use.
func (c *Cluster) LinkView() LinkView {
	v := LinkView{c: c}
	if d := c.degraded.Load(); d != nil {
		v.degraded = *d
	}
	return v
}

// Size returns the number of machines.
func (v LinkView) Size() int { return v.c.Size() }

// degradation returns the slowdown factor of the machine pair in the view
// (1 when the pair is healthy).
func (v LinkView) degradation(i, j int) float64 {
	if i > j {
		i, j = j, i
	}
	if f, ok := v.degraded[[2]int{i, j}]; ok {
		return f
	}
	return 1
}

// ModelLink returns the view's i->j link: the configured specification
// worsened by its degradation factor (latency multiplied, bandwidth
// divided). The estimator and group selection read links through it; the
// simulation itself keeps reading Link, so observed degradation changes
// predictions and placement, not physics.
func (v LinkView) ModelLink(i, j int) LinkSpec {
	l := v.c.Link(i, j)
	if f := v.degradation(i, j); f > 1 {
		l.Latency *= f
		l.Bandwidth /= f
	}
	return l
}

// LinkDegradation returns the recorded slowdown factor for the machine
// pair (1 when the pair is healthy). Safe for concurrent use.
func (c *Cluster) LinkDegradation(i, j int) float64 { return c.LinkView().degradation(i, j) }

// ModelLink is LinkView().ModelLink: the cost model's current view of the
// i->j link. Safe for concurrent use.
func (c *Cluster) ModelLink(i, j int) LinkSpec { return c.LinkView().ModelLink(i, j) }

// MarkFailed marks machine i as crashed (fault-tolerance extension). A
// failed machine's processes are excluded from group selection and from
// Timeof predictions. Safe for concurrent use.
func (c *Cluster) MarkFailed(i int) {
	c.failMu.Lock()
	defer c.failMu.Unlock()
	if i >= 0 && i < len(c.Machines) {
		c.Machines[i].Failed = true
	}
}

// IsMachineFailed reports whether machine i has been marked failed. Safe
// for concurrent use.
func (c *Cluster) IsMachineFailed(i int) bool {
	c.failMu.Lock()
	defer c.failMu.Unlock()
	return i >= 0 && i < len(c.Machines) && c.Machines[i].Failed
}

// LinkOverride customises the link between one machine pair. An override
// with A == B replaces machine A's intra-machine link (the bus its
// co-located processes communicate through), so fat-node clusters can
// give every machine a distinct internal speed.
type LinkOverride struct {
	A    int      `json:"a"`
	B    int      `json:"b"`
	Link LinkSpec `json:"link"`
}

// Size returns the number of machines.
func (c *Cluster) Size() int { return len(c.Machines) }

// Link returns the link specification for messages from machine i to
// machine j. Overrides win over the defaults, including self-overrides
// (A == B == i) over the shared Local link.
func (c *Cluster) Link(i, j int) LinkSpec {
	for _, o := range c.Overrides {
		if (o.A == i && o.B == j) || (o.A == j && o.B == i) {
			return o.Link
		}
	}
	if i == j {
		return c.Local
	}
	return c.Remote
}

// Validate reports configuration errors.
func (c *Cluster) Validate() error {
	if len(c.Machines) == 0 {
		return fmt.Errorf("hnoc: cluster has no machines")
	}
	names := make(map[string]bool, len(c.Machines))
	for i, m := range c.Machines {
		if m.Name == "" {
			return fmt.Errorf("hnoc: machine %d has no name", i)
		}
		if names[m.Name] {
			return fmt.Errorf("hnoc: duplicate machine name %q", m.Name)
		}
		names[m.Name] = true
		if m.Speed <= 0 {
			return fmt.Errorf("hnoc: machine %q has non-positive speed %v", m.Name, m.Speed)
		}
	}
	for _, l := range []LinkSpec{c.Remote, c.Local} {
		if l.Bandwidth <= 0 {
			return fmt.Errorf("hnoc: link %q has non-positive bandwidth", l.Protocol)
		}
		if l.Latency < 0 || l.Overhead < 0 {
			return fmt.Errorf("hnoc: link %q has negative latency or overhead", l.Protocol)
		}
	}
	for _, o := range c.Overrides {
		if o.A < 0 || o.A >= len(c.Machines) || o.B < 0 || o.B >= len(c.Machines) {
			return fmt.Errorf("hnoc: link override references machine out of range (%d,%d)", o.A, o.B)
		}
		if o.Link.Bandwidth <= 0 {
			return fmt.Errorf("hnoc: link override (%d,%d) has non-positive bandwidth", o.A, o.B)
		}
	}
	return nil
}

// Clone returns a deep copy of the cluster. Load profiles and the
// degradation map are shared (they are immutable; DegradeLink on either
// cluster replaces its own map).
func (c *Cluster) Clone() *Cluster {
	out := &Cluster{
		Machines:  append([]Machine(nil), c.Machines...),
		Remote:    c.Remote,
		Local:     c.Local,
		Overrides: append([]LinkOverride(nil), c.Overrides...),
	}
	out.degraded.Store(c.degraded.Load())
	return out
}

// Speeds returns the nominal speeds of all machines.
func (c *Cluster) Speeds() []float64 {
	out := make([]float64, len(c.Machines))
	for i, m := range c.Machines {
		out[i] = m.Speed
	}
	return out
}

// FlopsPerSpeedUnit calibrates the abstract speed scale of cluster
// configurations against real arithmetic: a machine of speed s performs
// s*FlopsPerSpeedUnit floating-point operations per second. The constant
// is chosen so the paper's common workstation (speed 46) delivers ≈150
// MFlops, a typical 2003 workstation running an optimised kernel.
// Applications divide their kernel's flop count by this constant to charge
// computation in speed units.
const FlopsPerSpeedUnit = 3.26e6

// Ethernet100 is the link specification of the paper's testbed network:
// switched 100 Mbit Ethernet. 100 Mbit/s ≈ 12.5 MB/s raw; sustained TCP
// throughput on 2003-era stacks was around 11 MB/s with ~150 µs round-trip
// start-up cost.
func Ethernet100() LinkSpec {
	return LinkSpec{
		Protocol:  ProtoTCP,
		Latency:   150e-6,
		Bandwidth: 11e6,
		Overhead:  20e-6,
	}
}

// SharedMemory is a generic same-machine channel: negligible latency, high
// bandwidth.
func SharedMemory() LinkSpec {
	return LinkSpec{
		Protocol:  ProtoSHM,
		Latency:   5e-6,
		Bandwidth: 400e6,
		Overhead:  2e-6,
	}
}

// Paper9 returns the paper's experimental testbed: nine Solaris and Linux
// workstations with relative speeds 46, 46, 46, 46, 46, 46, 176, 106 and 9
// (the speeds measured at run time on the EM3D core computation), joined by
// switched 100 Mbit Ethernet. The speeds are scaled so that speed units are
// "benchmark kernels per second" with the common workstation running 46e6
// elementary operations per second worth of kernel work; only the ratios
// matter.
//
// The paper's matrix-multiplication section lists only eight speeds
// (46x6, 106, 9), apparently dropping the 176 machine from the text; we use
// the same nine machines for both applications.
func Paper9() *Cluster {
	speeds := []float64{46, 46, 46, 46, 46, 46, 176, 106, 9}
	names := []string{
		"csserver", "csultra01", "csultra02", "csultra03", "csultra04",
		"csultra05", "pg1cluster01", "maxft", "csparlx01",
	}
	c := &Cluster{
		Remote: Ethernet100(),
		Local:  SharedMemory(),
	}
	for i, s := range speeds {
		c.Machines = append(c.Machines, Machine{Name: names[i], Speed: s})
	}
	return c
}

// FatNodes returns a cluster of fat multi-core machines together with the
// placement that runs counts[i] processes on machine i (rank blocks in
// machine order). speeds, counts and locals must have equal length;
// locals[i], when it has a non-zero bandwidth, becomes machine i's
// intra-machine link via a self-override (A == B == i), so every machine
// can have a distinct internal bus. remote joins distinct machines.
//
// This is the example topology of the hierarchy-aware collective engine:
// processes co-located on one machine form a node tier over the fast
// bus, one leader per machine forms the net tier over remote.
func FatNodes(speeds []float64, counts []int, locals []LinkSpec, remote LinkSpec) (*Cluster, []int) {
	if len(counts) != len(speeds) || len(locals) != len(speeds) {
		panic(fmt.Sprintf("hnoc: FatNodes needs equal-length speeds/counts/locals, got %d/%d/%d",
			len(speeds), len(counts), len(locals)))
	}
	c := &Cluster{
		Remote: remote,
		Local:  SharedMemory(),
	}
	var place []int
	for i, s := range speeds {
		c.Machines = append(c.Machines, Machine{
			Name:  fmt.Sprintf("fat%02d", i),
			Speed: s,
		})
		if locals[i].Bandwidth > 0 {
			c.Overrides = append(c.Overrides, LinkOverride{A: i, B: i, Link: locals[i]})
		}
		for k := 0; k < counts[i]; k++ {
			place = append(place, i)
		}
	}
	return c, place
}

// FatNode3x8 is the hierarchy benchmark topology: three fat 8-core
// machines in the spirit of the paper's fastest workstations (relative
// speeds 176, 106, 46), each with its own internal bus — 800, 600 and
// 400 MB/s — joined by the paper's switched 100 Mbit Ethernet. 24
// processes, 8 per machine. The buses are all far faster than the LAN,
// which is exactly the regime where two-level collectives win: the flat
// ring drags 2(P-1) = 46 link latencies and ~2x the vector over the
// Ethernet, the hierarchical allreduce crosses it only 2(M-1) = 4 times
// with the leaders' 1/M share.
func FatNode3x8() (*Cluster, []int) {
	return FatNodes(
		[]float64{176, 106, 46},
		[]int{8, 8, 8},
		[]LinkSpec{
			{Protocol: ProtoSHM, Latency: 2e-6, Bandwidth: 800e6, Overhead: 1e-6},
			{Protocol: ProtoSHM, Latency: 4e-6, Bandwidth: 600e6, Overhead: 2e-6},
			{Protocol: ProtoSHM, Latency: 5e-6, Bandwidth: 400e6, Overhead: 2e-6},
		},
		Ethernet100(),
	)
}

// Homogeneous returns an n-machine cluster with identical speed machines,
// useful as a control in tests: on it, every group of equal size performs
// identically, so HMPI's selection cannot (and must not) win or lose.
func Homogeneous(n int, speed float64) *Cluster {
	c := &Cluster{
		Remote: Ethernet100(),
		Local:  SharedMemory(),
	}
	for i := 0; i < n; i++ {
		c.Machines = append(c.Machines, Machine{
			Name:  fmt.Sprintf("node%02d", i),
			Speed: speed,
		})
	}
	return c
}
