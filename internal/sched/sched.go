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
type Kind int

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

// Task is one node of the graph.
type Task struct {
	ID   int
	Kind Kind
	// Proc is the computing abstract processor (KindCompute).
	Proc int
	// Src and Dst are the endpoints (KindTransfer).
	Src, Dst int
	// Units is the computation volume in benchmark units (KindCompute).
	Units float64
	// Bytes is the transfer volume (KindTransfer).
	Bytes float64
	// Deps are the IDs of tasks that must finish first.
	Deps []int
}

// DAG is a task graph under construction. Tasks must be appended in a
// topological order (dependencies before dependents); the interpreter's
// program order guarantees this naturally.
type DAG struct {
	Tasks []*Task
}

// add appends a task, validating the dependency ordering invariant.
func (d *DAG) add(t *Task) int {
	t.ID = len(d.Tasks)
	for _, dep := range t.Deps {
		if dep < 0 || dep >= t.ID {
			panic(fmt.Sprintf("sched: task %d depends on %d, not yet defined", t.ID, dep))
		}
	}
	d.Tasks = append(d.Tasks, t)
	return t.ID
}

// AddCompute appends a computation of `units` benchmark units on abstract
// processor proc and returns its ID.
func (d *DAG) AddCompute(proc int, units float64, deps []int) int {
	if units < 0 {
		panic(fmt.Sprintf("sched: negative compute volume %v", units))
	}
	return d.add(&Task{Kind: KindCompute, Proc: proc, Units: units, Deps: dupDeps(deps)})
}

// AddTransfer appends a transfer of bytes from src to dst and returns its
// ID.
func (d *DAG) AddTransfer(src, dst int, bytes float64, deps []int) int {
	if bytes < 0 {
		panic(fmt.Sprintf("sched: negative transfer volume %v", bytes))
	}
	return d.add(&Task{Kind: KindTransfer, Src: src, Dst: dst, Bytes: bytes, Deps: dupDeps(deps)})
}

// AddNop appends a synchronisation node joining deps and returns its ID.
func (d *DAG) AddNop(deps []int) int {
	return d.add(&Task{Kind: KindNop, Deps: dupDeps(deps)})
}

func dupDeps(deps []int) []int { return append([]int(nil), deps...) }

// Size returns the number of tasks.
func (d *DAG) Size() int { return len(d.Tasks) }

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
	finish   []float64
	procFree []float64
	nicFree  []float64
	busy     []float64
	bytesOut []float64
}

// reset sizes every buffer and zeroes the active prefix.
func (s *Scratch) reset(tasks, procs int) {
	s.finish = resizeZero(s.finish, tasks)
	s.procFree = resizeZero(s.procFree, procs)
	s.nicFree = resizeZero(s.nicFree, procs)
	s.busy = resizeZero(s.busy, procs)
	s.bytesOut = resizeZero(s.bytesOut, procs)
}

func resizeZero(b []float64, n int) []float64 {
	if cap(b) < n {
		return make([]float64, n)
	}
	b = b[:n]
	for i := range b {
		b[i] = 0
	}
	return b
}

// ScheduleInto replays the DAG in insertion order (a topological order)
// against the resources and returns the timing. numProcs is the number of
// abstract processors referenced by the tasks. The replay state lives in the
// scratch: the returned Result's slices alias it and are valid only until
// its next use.
func ScheduleInto(sc *Scratch, d *DAG, numProcs int, res Resources) Result {
	sc.reset(len(d.Tasks), numProcs)
	finish := sc.finish
	procFree := sc.procFree
	nicFree := sc.nicFree
	busy := sc.busy
	bytesOut := sc.bytesOut

	makespan := 0.0
	for _, t := range d.Tasks {
		ready := 0.0
		for _, dep := range t.Deps {
			if finish[dep] > ready {
				ready = finish[dep]
			}
		}
		var end float64
		switch t.Kind {
		case KindNop:
			end = ready
		case KindCompute:
			speed := res.Speed(t.Proc)
			if speed <= 0 || math.IsNaN(speed) {
				panic(fmt.Sprintf("sched: non-positive speed %v for processor %d", speed, t.Proc))
			}
			start := math.Max(ready, procFree[t.Proc])
			end = start + t.Units/speed
			procFree[t.Proc] = end
			busy[t.Proc] += t.Units / speed
		case KindTransfer:
			if t.Src == t.Dst {
				end = ready // self transfer is free
				break
			}
			link := res.Link(t.Src, t.Dst)
			occupy := t.Bytes/link.Bandwidth + link.Overhead
			start := ready
			if res.SerialiseNIC {
				start = math.Max(ready, nicFree[t.Src])
				nicFree[t.Src] = start + occupy
			}
			end = start + occupy + link.Latency
			bytesOut[t.Src] += t.Bytes
		}
		finish[t.ID] = end
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
