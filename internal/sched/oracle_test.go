package sched

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// The pointer-based task graph and replay the flat DAG replaced, kept
// verbatim (identifiers prefixed with "ptr") as the oracle of
// TestScheduleMatchesPointerReplay.

type ptrTask struct {
	ID       int
	Kind     Kind
	Proc     int
	Src, Dst int
	Units    float64
	Bytes    float64
	Deps     []int
}

type ptrDAG struct {
	Tasks []*ptrTask
}

type ptrScratch struct {
	finish   []float64
	procFree []float64
	nicFree  []float64
	busy     []float64
	bytesOut []float64
}

func (s *ptrScratch) reset(tasks, procs int) {
	s.finish = ptrResizeZero(s.finish, tasks)
	s.procFree = ptrResizeZero(s.procFree, procs)
	s.nicFree = ptrResizeZero(s.nicFree, procs)
	s.busy = ptrResizeZero(s.busy, procs)
	s.bytesOut = ptrResizeZero(s.bytesOut, procs)
}

func ptrResizeZero(b []float64, n int) []float64 {
	if cap(b) < n {
		return make([]float64, n)
	}
	b = b[:n]
	for i := range b {
		b[i] = 0
	}
	return b
}

func ptrScheduleInto(sc *ptrScratch, d *ptrDAG, numProcs int, res Resources) Result {
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

// TestScheduleMatchesPointerReplay: on random graphs — computes, transfers
// (self transfers included), nops, up to four dependencies each — and
// random per-processor speeds and per-pair link costs, the flat replay
// gives bit-equal makespan, finish times, busy times and bytes out to the
// pointer-based one, with the sender NIC serialised and not. Each
// replay's table is read back through Task, so the accessor is checked
// too; the scratches are reused across graphs of every size.
func TestScheduleMatchesPointerReplay(t *testing.T) {
	var sc Scratch
	var osc ptrScratch
	f := func(seed int64, serial bool) bool {
		r := rand.New(rand.NewSource(seed))
		procs := 1 + r.Intn(12)
		tasks := r.Intn(400)
		var d DAG
		for i := 0; i < tasks; i++ {
			deps := make([]int, 0, 4)
			for k := r.Intn(5); k > 0 && i > 0; k-- {
				deps = append(deps, r.Intn(i))
			}
			switch r.Intn(3) {
			case 0:
				d.AddCompute(r.Intn(procs), r.Float64()*1000, deps)
			case 1:
				d.AddTransfer(r.Intn(procs), r.Intn(procs), r.Float64()*1e6, deps)
			default:
				d.AddNop(deps)
			}
		}
		var od ptrDAG
		for i := range d.Size() {
			task := d.Task(i)
			ot := &ptrTask{ID: i, Kind: task.Kind, Proc: task.Proc, Src: task.Src, Dst: task.Dst, Units: task.Units, Bytes: task.Bytes}
			for _, dep := range task.Deps {
				ot.Deps = append(ot.Deps, int(dep))
			}
			od.Tasks = append(od.Tasks, ot)
		}
		speed := make([]float64, procs)
		link := make([]Link, procs*procs)
		for p := range speed {
			speed[p] = 1 + r.Float64()*200
		}
		for k := range link {
			link[k] = Link{Latency: r.Float64() * 1e-3, Bandwidth: 1e5 + r.Float64()*1e8, Overhead: r.Float64() * 1e-4}
		}
		res := Resources{
			Speed:        func(p int) float64 { return speed[p] },
			Link:         func(src, dst int) Link { return link[src*procs+dst] },
			SerialiseNIC: serial,
		}
		want := ptrScheduleInto(&osc, &od, procs, res)
		got := ScheduleInto(&sc, &d, procs, res)
		if got.Makespan != want.Makespan {
			t.Logf("seed %d: makespan %x, want %x", seed, math.Float64bits(got.Makespan), math.Float64bits(want.Makespan))
			return false
		}
		for i := range want.Finish {
			if got.Finish[i] != want.Finish[i] {
				t.Logf("seed %d: finish[%d] %v, want %v", seed, i, got.Finish[i], want.Finish[i])
				return false
			}
		}
		for p := range want.ProcBusy {
			if got.ProcBusy[p] != want.ProcBusy[p] || got.BytesOut[p] != want.BytesOut[p] {
				t.Logf("seed %d: processor %d busy/bytes differ", seed, p)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
