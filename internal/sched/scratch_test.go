package sched

import (
	"testing"
)

// randomDAG builds a deterministic pseudo-random DAG over procs abstract
// processors: a mix of computes, transfers, and nops with arbitrary
// back-edges.
func randomDAG(seed uint64, tasks, procs int) *DAG {
	state := seed
	next := func(n int) int {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return int(state % uint64(n))
	}
	d := &DAG{}
	for i := 0; i < tasks; i++ {
		var deps []int
		if i > 0 {
			for k := 0; k < next(3); k++ {
				deps = append(deps, next(i))
			}
		}
		switch next(3) {
		case 0:
			d.AddCompute(next(procs), float64(next(1000)+1), deps)
		case 1:
			d.AddTransfer(next(procs), next(procs), float64(next(100_000)), deps)
		default:
			d.AddNop(deps)
		}
	}
	return d
}

func testResources(procs int) Resources {
	return Resources{
		Speed: func(p int) float64 { return float64(10 + 7*p) },
		Link: func(src, dst int) Link {
			return Link{Latency: 150e-6, Bandwidth: float64(1e6 * (1 + (src+dst)%3)), Overhead: 20e-6}
		},
		SerialiseNIC: true,
	}
}

// TestScheduleIntoMatchesSchedule pins the replay into a reused scratch to
// the replay into a fresh one bit for bit, including per-task and
// per-processor detail.
func TestScheduleIntoMatchesSchedule(t *testing.T) {
	sc := new(Scratch)
	for _, cfg := range []struct {
		seed  uint64
		tasks int
		procs int
	}{
		{1, 40, 3},
		{2, 200, 9}, // bigger than the previous call: buffers must grow
		{3, 5, 2},   // smaller: stale state must be cleared
		{4, 120, 6},
	} {
		d := randomDAG(cfg.seed, cfg.tasks, cfg.procs)
		res := testResources(cfg.procs)
		want := ScheduleInto(new(Scratch), d, cfg.procs, res)
		got := ScheduleInto(sc, d, cfg.procs, res)
		if got.Makespan != want.Makespan {
			t.Fatalf("seed %d: makespan %v != %v", cfg.seed, got.Makespan, want.Makespan)
		}
		for i := range want.Finish {
			if got.Finish[i] != want.Finish[i] {
				t.Fatalf("seed %d: finish[%d] %v != %v", cfg.seed, i, got.Finish[i], want.Finish[i])
			}
		}
		for p := range want.ProcBusy {
			if got.ProcBusy[p] != want.ProcBusy[p] || got.BytesOut[p] != want.BytesOut[p] {
				t.Fatalf("seed %d: proc %d detail mismatch", cfg.seed, p)
			}
		}
	}
}

// TestMakespanIntoAllocationFree pins the point of the scratch: steady-state
// replays must not allocate.
func TestMakespanIntoAllocationFree(t *testing.T) {
	d := randomDAG(7, 300, 9)
	res := testResources(9)
	sc := new(Scratch)
	MakespanInto(sc, d, 9, res) // warm up the buffers
	allocs := testing.AllocsPerRun(50, func() {
		MakespanInto(sc, d, 9, res)
	})
	if allocs != 0 {
		t.Fatalf("MakespanInto allocates %v objects per replay, want 0", allocs)
	}
}
