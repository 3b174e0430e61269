// Package sched provides the task-graph machinery behind HMPI_Timeof: the
// scheme declaration of a performance model is interpreted into a DAG of
// computation and communication tasks, and a deterministic list scheduler
// replays the DAG against the resources of a candidate process arrangement
// (per-processor serial execution, per-sender interface serialisation,
// switched network) to predict the execution time of the modelled
// algorithm.
package sched

import (
	"fmt"
	"math"
)

// Kind discriminates task types.
type Kind uint8

// Task kinds.
const (
	// KindCompute is computation on one abstract processor.
	KindCompute Kind = iota
	// KindTransfer is a point-to-point transfer between two abstract
	// processors.
	KindTransfer
	// KindNop is a zero-duration synchronisation node (par fork/join).
	KindNop
)

// Task is one node of the graph, as DAG.Task reads it back.
type Task struct {
	Kind Kind
	// Proc is the computing abstract processor (KindCompute).
	Proc int
	// Src and Dst are the endpoints (KindTransfer).
	Src, Dst int
	// Units is the computation volume in benchmark units (KindCompute).
	Units float64
	// Bytes is the transfer volume (KindTransfer).
	Bytes float64
	// Deps are the indices of tasks that must finish first. The slice
	// aliases the graph: read it, never write it.
	Deps []int32
}

// DAG is a task graph under construction, stored as parallel arrays
// indexed by task (compressed sparse rows): no per-task object, and one
// dependency array shared by every task. Tasks must be appended in a
// topological order (dependencies before dependents); the interpreter's
// program order guarantees this naturally. The zero value is an empty
// graph; a built graph is read-only to any number of concurrent replays.
type DAG struct {
	kind   []Kind
	ends   [][2]int32 // {processor, 0} (compute) or {source, destination} (transfer)
	vol    []float64  // benchmark units (compute) or bytes (transfer)
	depEnd []int32    // task i depends on deps[depEnd[i-1]:depEnd[i]] (from 0 for task 0)
	deps   []int32
}

// add appends a task, validating the dependency ordering invariant.
func (d *DAG) add(k Kind, a, b int, vol float64, deps []int) int {
	id := len(d.kind)
	for _, dep := range deps {
		if dep < 0 || dep >= id {
			panic(fmt.Sprintf("sched: task %d depends on %d, not yet defined", id, dep))
		}
	}
	for _, dep := range deps {
		d.deps = append(d.deps, int32(dep))
	}
	d.kind = append(d.kind, k)
	d.ends = append(d.ends, [2]int32{int32(a), int32(b)})
	d.vol = append(d.vol, vol)
	d.depEnd = append(d.depEnd, int32(len(d.deps)))
	return id
}

// AddCompute appends a computation of `units` benchmark units on abstract
// processor proc and returns its ID.
func (d *DAG) AddCompute(proc int, units float64, deps []int) int {
	if units < 0 {
		panic(fmt.Sprintf("sched: negative compute volume %v", units))
	}
	return d.add(KindCompute, proc, 0, units, deps)
}

// AddTransfer appends a transfer of bytes from src to dst and returns its
// ID.
func (d *DAG) AddTransfer(src, dst int, bytes float64, deps []int) int {
	if bytes < 0 {
		panic(fmt.Sprintf("sched: negative transfer volume %v", bytes))
	}
	return d.add(KindTransfer, src, dst, bytes, deps)
}

// AddNop appends a synchronisation node joining deps and returns its ID.
func (d *DAG) AddNop(deps []int) int { return d.add(KindNop, 0, 0, 0, deps) }

// Size returns the number of tasks.
func (d *DAG) Size() int { return len(d.kind) }

// Task returns task i.
func (d *DAG) Task(i int) Task {
	lo := int32(0)
	if i > 0 {
		lo = d.depEnd[i-1]
	}
	t := Task{Kind: d.kind[i], Deps: d.deps[lo:d.depEnd[i]]}
	switch t.Kind {
	case KindCompute:
		t.Proc, t.Units = int(d.ends[i][0]), d.vol[i]
	case KindTransfer:
		t.Src, t.Dst, t.Bytes = int(d.ends[i][0]), int(d.ends[i][1]), d.vol[i]
	}
	return t
}

// Link is the cost model of one directed channel between two abstract
// processors.
type Link struct {
	Latency   float64 // seconds per message
	Bandwidth float64 // bytes per second
	Overhead  float64 // per-message CPU cost charged to the transfer
}

// Resources supplies the performance of a candidate arrangement of
// abstract processors on physical machines.
type Resources struct {
	// Speed returns the effective speed of the machine executing
	// abstract processor p, in benchmark units per second (already
	// reduced for machine sharing and external load, as estimated by
	// HMPI_Recon).
	Speed func(p int) float64
	// Link returns the channel cost model from abstract processor src to
	// dst.
	Link func(src, dst int) Link
	// SerialiseNIC, when true, makes each abstract processor's outgoing
	// transfers occupy its interface serially (switched-Ethernet
	// behaviour). When false, all transfers from one processor proceed
	// in parallel (an idealised network; kept for the ablation study).
	SerialiseNIC bool
}

// Result is the outcome of scheduling a DAG.
type Result struct {
	Makespan float64
	// Finish[i] is the completion time of task i.
	Finish []float64
	// ProcBusy[p] is the total computation time of abstract processor p.
	ProcBusy []float64
	// BytesOut[p] is the total volume sent by abstract processor p.
	BytesOut []float64
}

// Scratch holds the replay state of one ScheduleInto call so that the hot
// path of group selection — scoring thousands of candidate arrangements
// against the same DAG — can run allocation-free. The zero value is ready
// to use; buffers grow on demand and are reused across calls. A Scratch
// must be owned by a single goroutine (one search worker); distinct
// Scratches never share state, so any number may replay one DAG
// concurrently.
type Scratch struct {
	finish, procFree, nicFree, busy, bytesOut []float64
	// The replay's resources, tabulated: speed[p] is read from
	// Resources.Speed once per replay, link[src*numProcs+dst] from
	// Resources.Link at the pair's first transfer (haveLink marks it).
	speed    []float64
	link     []Link
	haveLink []bool
}

// grow sizes *b to n, reallocating when it is too short, zeroes it when
// asked, and returns it.
func grow[T any](b *[]T, n int, zero bool) []T {
	if cap(*b) < n {
		*b = make([]T, n)
	}
	*b = (*b)[:n]
	if zero {
		clear(*b)
	}
	return *b
}

// ScheduleInto replays the DAG in insertion order (a topological order)
// against the resources and returns the timing. numProcs is the number of
// abstract processors referenced by the tasks. The replay state lives in the
// scratch: the returned Result's slices alias it and are valid only until
// its next use.
func ScheduleInto(sc *Scratch, d *DAG, numProcs int, res Resources) Result {
	// finish, speeds and links are written before they are read; the
	// rest accumulates from zero.
	finish, speeds := grow(&sc.finish, d.Size(), false), grow(&sc.speed, numProcs, false)
	procFree, nicFree := grow(&sc.procFree, numProcs, true), grow(&sc.nicFree, numProcs, true)
	busy, bytesOut := grow(&sc.busy, numProcs, true), grow(&sc.bytesOut, numProcs, true)
	links, haveLink := grow(&sc.link, numProcs*numProcs, false), grow(&sc.haveLink, numProcs*numProcs, true)
	for p := range speeds {
		speeds[p] = res.Speed(p)
	}

	makespan := 0.0
	lo := int32(0)
	for i, kind := range d.kind {
		hi := d.depEnd[i]
		ready := 0.0
		for _, dep := range d.deps[lo:hi] {
			if finish[dep] > ready {
				ready = finish[dep]
			}
		}
		lo = hi
		end := ready // a Nop, or a self transfer: free
		a, b, vol := d.ends[i][0], d.ends[i][1], d.vol[i]
		switch {
		case kind == KindCompute:
			speed := speeds[a]
			if speed <= 0 || math.IsNaN(speed) {
				panic(fmt.Sprintf("sched: non-positive speed %v for processor %d", speed, a))
			}
			work := vol / speed
			end = fmax(ready, procFree[a]) + work
			procFree[a] = end
			busy[a] += work
		case kind == KindTransfer && a != b:
			k := int(a)*numProcs + int(b)
			if !haveLink[k] {
				links[k], haveLink[k] = res.Link(int(a), int(b)), true
			}
			link := links[k]
			occupy := vol/link.Bandwidth + link.Overhead
			start := ready
			if res.SerialiseNIC {
				start = fmax(ready, nicFree[a])
				nicFree[a] = start + occupy
			}
			end = start + occupy + link.Latency
			bytesOut[a] += vol
		}
		finish[i] = end
		if end > makespan {
			makespan = end
		}
	}
	return Result{Makespan: makespan, Finish: finish, ProcBusy: busy, BytesOut: bytesOut}
}

// MakespanInto returns only the makespan of ScheduleInto: the
// allocation-free inner loop of group selection.
func MakespanInto(sc *Scratch, d *DAG, numProcs int, res Resources) float64 {
	return ScheduleInto(sc, d, numProcs, res).Makespan
}

// fmax is math.Max, inlined when the operands are ordered and distinct:
// math.Max is an assembly call on amd64 that the compiler never inlines.
// Ties (±0 among them), infinities and NaN fall through to math.Max, so
// the result is its bits exactly; the builtin max is not, it returns NaN
// for max(+Inf, NaN).
func fmax(a, b float64) float64 {
	if a > b {
		return a
	}
	if b > a {
		return b
	}
	return math.Max(a, b)
}
