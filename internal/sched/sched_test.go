package sched

import (
	"math"
	"testing"
	"testing/quick"
)

func uniformRes(speed, lat, bw float64, serial bool) Resources {
	return Resources{
		Speed:        func(p int) float64 { return speed },
		Link:         func(src, dst int) Link { return Link{Latency: lat, Bandwidth: bw} },
		SerialiseNIC: serial,
	}
}

func TestSequentialChain(t *testing.T) {
	var d DAG
	a := d.AddCompute(0, 10, nil)
	b := d.AddCompute(0, 20, []int{a})
	d.AddCompute(0, 30, []int{b})
	got := MakespanInto(new(Scratch), &d, 1, uniformRes(10, 0, 1e6, true))
	if got != 6 {
		t.Fatalf("chain makespan = %v, want 6", got)
	}
}

func TestParallelBranchesOnDistinctProcs(t *testing.T) {
	var d DAG
	fork := d.AddNop(nil)
	a := d.AddCompute(0, 10, []int{fork})
	b := d.AddCompute(1, 40, []int{fork})
	d.AddNop([]int{a, b})
	got := MakespanInto(new(Scratch), &d, 2, uniformRes(10, 0, 1e6, true))
	if got != 4 {
		t.Fatalf("parallel makespan = %v, want 4 (max of 1 and 4)", got)
	}
}

func TestSameProcSerialisesParallelBranches(t *testing.T) {
	// Two "parallel" computations on one processor still serialise.
	var d DAG
	fork := d.AddNop(nil)
	a := d.AddCompute(0, 10, []int{fork})
	b := d.AddCompute(0, 10, []int{fork})
	d.AddNop([]int{a, b})
	got := MakespanInto(new(Scratch), &d, 1, uniformRes(10, 0, 1e6, true))
	if got != 2 {
		t.Fatalf("same-proc makespan = %v, want 2", got)
	}
}

func TestTransferTiming(t *testing.T) {
	var d DAG
	d.AddTransfer(0, 1, 1e6, nil)
	got := MakespanInto(new(Scratch), &d, 2, uniformRes(1, 0.5, 1e6, true))
	if math.Abs(got-1.5) > 1e-12 {
		t.Fatalf("transfer makespan = %v, want 1.5", got)
	}
}

func TestSelfTransferIsFree(t *testing.T) {
	var d DAG
	a := d.AddCompute(0, 10, nil)
	d.AddTransfer(0, 0, 1e9, []int{a})
	got := MakespanInto(new(Scratch), &d, 1, uniformRes(10, 1, 1, true))
	if got != 1 {
		t.Fatalf("self transfer cost = %v, want 1", got)
	}
}

func TestNICSerialisation(t *testing.T) {
	// Three 1 MB transfers from proc 0 to distinct receivers at 1 MB/s.
	build := func() *DAG {
		var d DAG
		fork := d.AddNop(nil)
		for dst := 1; dst <= 3; dst++ {
			d.AddTransfer(0, dst, 1e6, []int{fork})
		}
		return &d
	}
	serial := MakespanInto(new(Scratch), build(), 4, uniformRes(1, 0.001, 1e6, true))
	if math.Abs(serial-3.001) > 1e-9 {
		t.Fatalf("serialised fan-out = %v, want 3.001", serial)
	}
	parallel := MakespanInto(new(Scratch), build(), 4, uniformRes(1, 0.001, 1e6, false))
	if math.Abs(parallel-1.001) > 1e-9 {
		t.Fatalf("ideal fan-out = %v, want 1.001", parallel)
	}
}

func TestDistinctSendersDontSerialise(t *testing.T) {
	// Switched network: transfers from different senders overlap.
	var d DAG
	fork := d.AddNop(nil)
	d.AddTransfer(0, 2, 1e6, []int{fork})
	d.AddTransfer(1, 3, 1e6, []int{fork})
	got := MakespanInto(new(Scratch), &d, 4, uniformRes(1, 0, 1e6, true))
	if math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("cross-pair makespan = %v, want 1.0", got)
	}
}

func TestHeterogeneousSpeeds(t *testing.T) {
	var d DAG
	fork := d.AddNop(nil)
	a := d.AddCompute(0, 90, []int{fork}) // fast machine
	b := d.AddCompute(1, 90, []int{fork}) // slow machine
	d.AddNop([]int{a, b})
	res := Resources{
		Speed: func(p int) float64 {
			if p == 0 {
				return 90
			}
			return 9
		},
		Link:         func(int, int) Link { return Link{Bandwidth: 1e6} },
		SerialiseNIC: true,
	}
	got := MakespanInto(new(Scratch), &d, 2, res)
	if got != 10 {
		t.Fatalf("hetero makespan = %v, want 10 (slow branch)", got)
	}
}

func TestResultAccounting(t *testing.T) {
	var d DAG
	a := d.AddCompute(0, 10, nil)
	d.AddTransfer(0, 1, 500, []int{a})
	r := ScheduleInto(new(Scratch), &d, 2, uniformRes(10, 0, 1e6, true))
	if r.ProcBusy[0] != 1 {
		t.Errorf("ProcBusy[0] = %v, want 1", r.ProcBusy[0])
	}
	if r.BytesOut[0] != 500 {
		t.Errorf("BytesOut[0] = %v, want 500", r.BytesOut[0])
	}
	if len(r.Finish) != 2 || r.Finish[1] <= r.Finish[0] {
		t.Errorf("Finish = %v", r.Finish)
	}
}

func TestInvalidConstruction(t *testing.T) {
	for name, f := range map[string]func(){
		"forward dep": func() { var d DAG; d.AddCompute(0, 1, []int{0}) },
		"neg units":   func() { var d DAG; d.AddCompute(0, -1, nil) },
		"neg bytes":   func() { var d DAG; d.AddTransfer(0, 1, -1, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

// Property: the makespan is at least every lower bound — the critical path
// through dependencies and every processor's total work — and adding a
// task never decreases it.
func TestMakespanLowerBounds(t *testing.T) {
	f := func(seed []uint8) bool {
		var d DAG
		procWork := map[int]float64{}
		prev := -1
		for i, s := range seed {
			if len(d.Tasks) > 60 {
				break
			}
			proc := int(s % 4)
			units := float64(s%17) + 1
			var deps []int
			if s%3 == 0 && prev >= 0 {
				deps = []int{prev}
			}
			prev = d.AddCompute(proc, units, deps)
			procWork[proc] += units
			if i%7 == 6 {
				d.AddTransfer(proc, (proc+1)%4, float64(s)*100, []int{prev})
			}
		}
		if len(d.Tasks) == 0 {
			return true
		}
		res := uniformRes(10, 0.001, 1e6, true)
		m1 := MakespanInto(new(Scratch), &d, 4, res)
		for _, w := range procWork {
			if m1 < w/10-1e-9 {
				return false
			}
		}
		// Monotonicity: appending more work cannot shrink the makespan.
		d.AddCompute(0, 5, nil)
		if MakespanInto(new(Scratch), &d, 4, res) < m1-1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
