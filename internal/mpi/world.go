// Package mpi is a message-passing library in the spirit of MPI-1,
// implemented in pure Go. Processes run as goroutines inside one address
// space; every process carries a virtual clock that is charged for
// computation (according to the speed and external load of the machine the
// process is placed on) and for communication (according to the latency,
// bandwidth and protocol of the link between the two machines involved).
//
// The library provides the MPI features the HMPI runtime is layered on:
// groups (ordered rank sets; Incl is the one constructor), communicators
// with context-based message isolation, point-to-point operations with tag
// and source wildcards and nonblocking variants, and the classic
// collectives, each algorithm one schedule (collsched.go).
//
// Timing model (LogGP-flavoured, switched network):
//
//   - Compute(v) on process p advances p's clock by the time machine(p)
//     needs for v benchmark units under its external load profile.
//   - Send of n bytes charges the sender o + n/B (overhead plus
//     store-and-forward serialisation on the sender's interface, which
//     transmits one message at a time); the message arrives at
//     sendEnd + L. Isend charges only o; the transfer occupies the
//     interface in the background.
//   - Recv blocks until a matching message exists, moves the receiver's
//     clock to at least the arrival time, and charges o.
//   - Distinct machine pairs transfer in parallel (switched Ethernet); a
//     single machine's interface serialises its outgoing transfers.
//
// Clocks interact only through messages, so no global event queue is
// needed and the simulation parallelises across real OS threads.
package mpi

import (
	"fmt"
	"sync"

	"repro/internal/hnoc"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// World is one parallel run: a set of processes placed on the machines of a
// cluster. Create it with NewWorld, execute a program with Run.
type World struct {
	cluster *hnoc.Cluster
	place   []int // world rank -> machine index
	procs   []*Proc

	ctxMu   sync.Mutex
	nextCtx int64
	ctxTab  map[ctxKey]int64

	failedMu sync.RWMutex
	failed   map[int]bool        // world ranks marked failed (fault injection)
	failKind map[int]FailureKind // why each failed rank is unreachable

	// failHooks run after a rank is marked failed: transports close the
	// rank's sockets, the HMPI runtime removes it from the free pool and
	// marks its machine dead. Registered before Run.
	hookMu    sync.Mutex
	failHooks []func(rank int)

	// revoked holds the context ids of revoked communicators (ULFM
	// extension, see ft.go).
	revMu   sync.RWMutex
	revoked map[int64]bool

	// agreeTab holds in-flight failure agreements (ft.go).
	agreeMu   sync.Mutex
	agreeCond *sync.Cond
	agreeTab  map[ctxKey]*agreeState

	// tick, when non-nil, observes every operation boundary of every
	// process: the hook through which a chaos schedule kills a process
	// when its own virtual clock passes the scheduled instant.
	tick func(p *Proc)

	// deliver routes an envelope to a destination's mailbox. The default
	// is the in-process path; NewWorldTCP substitutes a real network
	// transport.
	deliver func(dst int, e *envelope)

	// wireTransport is set by transports whose deliver serialises the
	// payload before returning (TCP): sendCommon can then skip its
	// defensive copy for non-self sends.
	wireTransport bool

	// collTuning is the collective algorithm policy communicators inherit
	// at creation (nil means DefaultCollTuning). Set before Run via
	// SetCollTuning.
	collTuning *CollTuning

	// rec, when non-nil, is the structured event recorder of the
	// observability subsystem (internal/trace); see recorder.go.
	rec *trace.Recorder

	// linkFilter, when non-nil, adjudicates every frame crossing a link:
	// the chaos engine's injection point for drops, duplicates, delays and
	// partitions (see reliable.go). Installed before Run.
	linkFilter LinkFilter
	// linkMu guards linkStats.
	linkMu    sync.Mutex
	linkStats map[linkPair]*LinkStats
}

type ctxKey struct {
	parent int64
	seq    int64
}

// NewWorld creates a world of len(placement) processes; placement[r] is the
// machine index (into cluster.Machines) that process r runs on. Several
// processes may share a machine. NewWorld panics on invalid placement;
// configuration errors in the cluster surface via Cluster.Validate, which
// callers should run first.
func NewWorld(cluster *hnoc.Cluster, placement []int) *World {
	if len(placement) == 0 {
		panic("mpi: empty placement")
	}
	for r, m := range placement {
		if m < 0 || m >= cluster.Size() {
			panic(fmt.Sprintf("mpi: placement[%d] = %d out of range [0,%d)", r, m, cluster.Size()))
		}
	}
	w := &World{
		cluster:  cluster,
		place:    append([]int(nil), placement...),
		nextCtx:  1,
		ctxTab:   make(map[ctxKey]int64),
		failed:   make(map[int]bool),
		failKind: make(map[int]FailureKind),
		revoked:  make(map[int64]bool),
		agreeTab: make(map[ctxKey]*agreeState),
	}
	w.agreeCond = sync.NewCond(&w.agreeMu)
	for r := range placement {
		w.procs = append(w.procs, newProc(w, r))
	}
	w.deliver = func(dst int, e *envelope) { w.procs[dst].mbox.put(e) }
	return w
}

// OneProcessPerMachine builds the placement the paper assumes: process r on
// machine r.
func OneProcessPerMachine(cluster *hnoc.Cluster) []int {
	place := make([]int, cluster.Size())
	for i := range place {
		place[i] = i
	}
	return place
}

// Size returns the number of processes in the world.
func (w *World) Size() int { return len(w.procs) }

// SetCollTuning installs the collective algorithm policy every
// communicator of this world inherits (CommWorld and everything derived
// from it). Passing nil restores the default policy. Call before Run;
// every process must observe the same policy or collectives would
// disagree on their communication pattern and deadlock.
func (w *World) SetCollTuning(t *CollTuning) { w.collTuning = t }

// contextStride is the id space reserved per allocation: a Split derives
// one sub-context per color from its base id, so the base ids of distinct
// allocations must be at least the maximum color count apart.
const contextStride = 1 << 24

// allocContext returns the base context id for the seq'th derived
// communicator of parent. All members of a collective call compute the same
// (parent, seq) key, so they all receive the same id; the first caller
// allocates.
func (w *World) allocContext(parent, seq int64) int64 {
	w.ctxMu.Lock()
	defer w.ctxMu.Unlock()
	k := ctxKey{parent, seq}
	if id, ok := w.ctxTab[k]; ok {
		return id
	}
	w.nextCtx += contextStride
	w.ctxTab[k] = w.nextCtx
	return w.nextCtx
}

// Fail marks a process as failed (fault-tolerance extension): subsequent
// communication with it panics with a *ProcessFailedError, which Run
// converts into an error return on the communicating process. Fail is
// idempotent; after marking it runs the registered failure hooks and wakes
// every blocked operation so survivors observe the failure.
func (w *World) Fail(rank int) { w.failWithKind(rank, FailureCrash) }

// FailPartitioned marks a process unreachable due to a suspected network
// partition rather than a crash: the rank is excised exactly as by Fail,
// but the *ProcessFailedError surfaced to its peers carries
// FailurePartition, so recovery code can distinguish a machine that died
// from one that is merely cut off (and may come back).
func (w *World) FailPartitioned(rank int) { w.failWithKind(rank, FailurePartition) }

func (w *World) failWithKind(rank int, kind FailureKind) {
	w.failedMu.Lock()
	if w.failed[rank] {
		w.failedMu.Unlock()
		return
	}
	w.failed[rank] = true
	w.failKind[rank] = kind
	w.failedMu.Unlock()
	w.procs[rank].mbox.close(kind)
	// Wake every blocked receiver so it can notice the failure.
	for _, p := range w.procs {
		p.mbox.notify()
	}
	// Wake agreements waiting for the failed rank's arrival.
	w.agreeMu.Lock()
	w.agreeCond.Broadcast()
	w.agreeMu.Unlock()
	w.hookMu.Lock()
	hooks := append([]func(rank int){}, w.failHooks...)
	w.hookMu.Unlock()
	for _, h := range hooks {
		h(rank)
	}
}

// OnFail registers a hook invoked (once) after a rank is marked failed.
// Transports use it to tear down the rank's connections; the HMPI runtime
// uses it to retire the rank's processor. Register before Run.
func (w *World) OnFail(hook func(rank int)) {
	w.hookMu.Lock()
	w.failHooks = append(w.failHooks, hook)
	w.hookMu.Unlock()
}

// SetFaultHook installs an observer called at every operation boundary
// (compute, send, receive) of every process, with the process's rank and
// current virtual time. The chaos package uses it to trigger scheduled
// failures deterministically in virtual time. Install before Run.
func (w *World) SetFaultHook(f func(rank int, now vclock.Time)) {
	if f == nil {
		w.tick = nil
		return
	}
	w.tick = func(p *Proc) { f(p.rank, p.clock.Now()) }
}

// opTick invokes the fault hook, if any, for the given process.
func (p *Proc) opTick() {
	if t := p.world.tick; t != nil {
		t(p)
	}
}

// IsFailed reports whether a world rank has been failed.
func (w *World) IsFailed(rank int) bool {
	w.failedMu.RLock()
	defer w.failedMu.RUnlock()
	return w.failed[rank]
}

// FailedKind returns why a failed rank is unreachable (crash or suspected
// partition). For a rank that has not failed it returns FailureCrash and
// false.
func (w *World) FailedKind(rank int) (FailureKind, bool) {
	w.failedMu.RLock()
	defer w.failedMu.RUnlock()
	if !w.failed[rank] {
		return FailureCrash, false
	}
	return w.failKind[rank], true
}

// failedError builds the error for communication with a failed rank,
// carrying the recorded failure kind.
func (w *World) failedError(rank int) *ProcessFailedError {
	kind, _ := w.FailedKind(rank)
	return &ProcessFailedError{Rank: rank, Kind: kind}
}

// FailureKind disambiguates why a peer is unreachable: a crashed process
// (the classic crash-stop model) or a suspected network partition — the
// peer may be healthy but traffic to it no longer gets through. Recovery
// treats both by excising the rank, but the distinction matters to the
// layer above: a partitioned machine should be routed around, not written
// off.
type FailureKind int

const (
	// FailureCrash: the process is dead (socket closed, heartbeat silence
	// towards every peer, or injected kill).
	FailureCrash FailureKind = iota
	// FailurePartition: the process is unreachable but not provably dead
	// (retransmissions exhausted on a live peer, or heartbeat silence
	// towards only some peers while others still hear it).
	FailurePartition
)

func (k FailureKind) String() string {
	if k == FailurePartition {
		return "partition"
	}
	return "crash"
}

// ProcessFailedError reports communication with a failed process. Kind
// distinguishes a crashed peer from one cut off by a suspected network
// partition; callers read it with errors.As.
type ProcessFailedError struct {
	Rank int         // world rank of the failed process
	Kind FailureKind // why the process is unreachable
}

func (e *ProcessFailedError) Error() string {
	if e.Kind == FailurePartition {
		return fmt.Sprintf("mpi: process %d is unreachable (suspected network partition)", e.Rank)
	}
	return fmt.Sprintf("mpi: process %d has failed", e.Rank)
}

// Run executes main on every process of the world concurrently and waits
// for all of them. It returns the first error returned by any process
// (panics inside a process, including communication with failed processes,
// are recovered and reported as errors). Run may be called once per World.
func (w *World) Run(main func(p *Proc) error) error {
	errs := make([]error, len(w.procs))
	var wg sync.WaitGroup
	for _, p := range w.procs {
		wg.Add(1)
		go func(p *Proc) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					switch e := r.(type) {
					case *ProcessFailedError:
						// A process that trips over its own failure is a
						// corpse: it died, it does not also report an
						// error — the failure surfaces on its peers.
						if e.Rank != p.rank {
							errs[p.rank] = e
						}
					case *KilledError:
						// Killed by fault injection: a silent death.
					case *RevokedError:
						errs[p.rank] = e
					default:
						errs[p.rank] = fmt.Errorf("mpi: process %d panicked: %v", p.rank, r)
					}
				}
			}()
			errs[p.rank] = main(p)
		}(p)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Makespan returns the maximum final virtual clock across processes: the
// simulated execution time of the run. Call after Run returns.
func (w *World) Makespan() vclock.Time {
	var max vclock.Time
	for _, p := range w.procs {
		if t := p.clock.Now(); t > max {
			max = t
		}
	}
	return max
}

// Stats aggregates the per-process statistics of the run.
func (w *World) Stats() []Stats {
	out := make([]Stats, len(w.procs))
	for i, p := range w.procs {
		out[i] = p.stats
	}
	return out
}

// Proc is the per-process handle: the view one simulated process has of the
// world. It is the receiver of all communication operations through the
// communicators derived from it. A Proc is confined to the goroutine Run
// started for it.
type Proc struct {
	world   *World
	rank    int
	machine int
	clock   vclock.Clock
	nicOut  vclock.NIC
	mbox    mailbox
	stats   Stats

	commWorld *Comm
	reqSeq    int64

	// eng is the progress engine: the rank's posted receives, matched
	// opportunistically whenever the rank enters any MPI call (see
	// request.go).
	eng progressState
	// reqID numbers the rank's nonblocking requests from 1; trace events
	// carry it so verifiers can follow a request's lifecycle.
	reqID int64

	// lastRecvAnySrc records whether the most recently matched receive on
	// this rank was posted with AnySource. Written and read only by the
	// rank's own goroutine, between matching an envelope and applying its
	// receive timing; finishRecvTiming folds it into the recv event's A1
	// so trace analyses can tell wildcard matches from directed ones.
	lastRecvAnySrc bool
}

// Stats counts the work a process performed.
type Stats struct {
	ComputeUnits float64     // benchmark units executed
	ComputeTime  vclock.Time // virtual seconds spent computing
	BytesSent    int64
	BytesRecv    int64
	MsgsSent     int64
	MsgsRecv     int64
}

func newProc(w *World, rank int) *Proc {
	p := &Proc{world: w, rank: rank, machine: w.place[rank]}
	p.mbox.init()
	p.mbox.owner = rank
	return p
}

// Rank returns the process's world rank.
func (p *Proc) Rank() int { return p.rank }

// Now returns the process's current virtual time.
func (p *Proc) Now() vclock.Time { return p.clock.Now() }

// Compute advances the process's virtual clock by the time its machine
// needs to execute `units` benchmark units of computation, honouring the
// machine's external load profile. It is the hook through which
// applications report their computation volume to the simulation.
func (p *Proc) Compute(units float64) {
	if units < 0 {
		panic(fmt.Sprintf("mpi: negative compute volume %v", units))
	}
	if units == 0 {
		return
	}
	m := &p.world.cluster.Machines[p.machine]
	start := p.clock.Now()
	end := vclock.Time(m.ComputeFinish(float64(start), units))
	p.clock.Set(end)
	p.stats.ComputeUnits += units
	p.stats.ComputeTime += end - start
	if r := p.world.rec; r != nil {
		wall := r.NowNS()
		r.Emit(p.rank, trace.Event{
			Rank: int32(p.rank), Kind: trace.KindCompute, Peer: -1,
			Start: start, End: end, WallStart: wall, WallEnd: wall,
		})
	}
	p.opTick()
}

// CommWorld returns the communicator spanning all processes, the analogue
// of MPI_COMM_WORLD. Within HMPI programs it backs HMPI_COMM_WORLD.
func (p *Proc) CommWorld() *Comm {
	if p.commWorld == nil {
		members := make([]int, p.world.Size())
		for i := range members {
			members[i] = i
		}
		p.commWorld = &Comm{
			p:      p,
			s:      &commShared{id: 0, members: members},
			rank:   p.rank,
			group:  &Group{ranks: members},
			tuning: p.world.collTuning,
		}
	}
	return p.commWorld
}
