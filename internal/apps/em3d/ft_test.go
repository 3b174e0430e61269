package em3d

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/chaos"
	"repro/internal/hmpi"
	"repro/internal/hnoc"
)

// runFT runs the problem under the self-healing driver and returns the
// result together with the gathered field.
func runFT(t *testing.T, rt *hmpi.Runtime, pr *Problem, opts RunOptions) (apps.Result, Field) {
	t.Helper()
	type out struct {
		res apps.Result
		err error
	}
	prog := &Program{Problem: pr, Opts: opts}
	done := make(chan out, 1)
	go func() {
		res, err := apps.Run(rt, prog, apps.SelfHealing)
		done <- out{res, err}
	}()
	select {
	case o := <-done:
		if o.err != nil {
			t.Fatal(o.err)
		}
		return o.res, prog.Field
	case <-time.After(60 * time.Second):
		t.Fatal("resilient run did not finish (hang in recovery path)")
		return apps.Result{}, nil
	}
}

// TestResilientSurvivesAnySingleFailure is the acceptance test for the
// self-healing harness: killing any single non-host rank mid-run must
// complete via group recreation with a bit-identical result and a reported
// recovery overhead.
func TestResilientSurvivesAnySingleFailure(t *testing.T) {
	pr := smallProblem(t, 4, 400)
	iters := 3
	want := pr.Clone().SerialRun(iters)
	// Every attempt, restarted ones included, starts from the field as
	// generated: no run writes to the problem.
	pristine := pr.digest(pr)
	defer func() {
		if pr.digest(pr) != pristine {
			t.Error("a run wrote to the program's problem")
		}
	}()
	// Each runtime gets a fresh cluster: failure marks are durable on a
	// cluster (a dead machine stays dead), so reusing one would leak kills
	// between subtests.
	newRT := func() *hmpi.Runtime {
		t.Helper()
		rt, err := hmpi.New(hmpi.Config{Cluster: hnoc.Homogeneous(6, 50)})
		if err != nil {
			t.Fatal(err)
		}
		return rt
	}

	// The failure-free run fixes the mid-run kill time and the selection.
	base, _ := runFT(t, newRT(), pr, RunOptions{Iters: iters})
	if base.Attempts != 1 {
		t.Fatalf("failure-free run took %d attempts", base.Attempts)
	}
	if base.Recovery != 0 {
		t.Fatalf("failure-free run reports recovery overhead %g", float64(base.Recovery))
	}
	inBase := func(rank int) bool {
		for _, r := range base.Selection {
			if r == rank {
				return true
			}
		}
		return false
	}

	for victim := 1; victim < 6; victim++ {
		t.Run(fmt.Sprintf("victim%d", victim), func(t *testing.T) {
			rt := newRT()
			sched := &chaos.Schedule{Events: []chaos.Event{{Rank: victim, At: base.Time / 2}}}
			var fired atomic.Bool
			if err := sched.Attach(rt.World(), func(chaos.Event) { fired.Store(true) }); err != nil {
				t.Fatal(err)
			}
			res, field := runFT(t, rt, pr, RunOptions{Iters: iters, RealMath: true})
			for i := range want {
				for n := range want[i] {
					if field[i][n] != want[i][n] {
						t.Fatalf("body %d node %d: %v != %v", i, n, field[i][n], want[i][n])
					}
				}
			}
			if !inBase(victim) {
				// An unselected process parks in a blocking receive, so the
				// scheduled kill never fires and the run is failure-free.
				return
			}
			if !fired.Load() {
				t.Fatal("scheduled kill of a selected member never fired")
			}
			if res.Attempts < 2 {
				t.Fatalf("attempts = %d, want >= 2 after a mid-run failure", res.Attempts)
			}
			if res.Recovery <= 0 {
				t.Fatalf("recovery overhead = %g, want > 0", float64(res.Recovery))
			}
			for _, r := range res.Selection {
				if r == victim {
					t.Fatalf("final selection %v still contains the dead rank %d", res.Selection, victim)
				}
			}
		})
	}
}
