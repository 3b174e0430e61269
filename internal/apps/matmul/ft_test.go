package matmul

import (
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/chaos"
	"repro/internal/hmpi"
	"repro/internal/hnoc"
)

// TestResilientMatmulRecovers kills one selected worker mid-multiplication
// and checks the run completes on a re-arranged grid with a correct C.
func TestResilientMatmulRecovers(t *testing.T) {
	pr, err := Generate(Config{M: 2, R: 2, N: 4, RealMath: true})
	if err != nil {
		t.Fatal(err)
	}
	want := pr.SerialMultiply()
	opts := RunOptions{CollectC: true}
	const l = 2

	run := func(t *testing.T, sched *chaos.Schedule) (apps.Result, []float64) {
		t.Helper()
		rt, err := hmpi.New(hmpi.Config{Cluster: hnoc.Homogeneous(6, 50)})
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Finalize()
		if sched != nil {
			if err := sched.Attach(rt.World(), nil); err != nil {
				t.Fatal(err)
			}
		}
		type out struct {
			res apps.Result
			err error
		}
		prog := &Program{Problem: pr, Ls: []int{l}, Opts: opts}
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
			return o.res, prog.C
		case <-time.After(60 * time.Second):
			t.Fatal("resilient matmul did not finish (hang in recovery path)")
			return apps.Result{}, nil
		}
	}

	base, _ := run(t, nil)
	if base.Attempts != 1 || base.Recovery != 0 {
		t.Fatalf("failure-free run: attempts %d recovery %g", base.Attempts, float64(base.Recovery))
	}
	victim := -1
	for _, r := range base.Selection {
		if r != hmpi.HostRank {
			victim = r
			break
		}
	}
	if victim < 0 {
		t.Fatal("no non-host member in the baseline selection")
	}

	res, c := run(t, &chaos.Schedule{Events: []chaos.Event{{Rank: victim, At: base.Time / 2}}})
	if res.Attempts < 2 {
		t.Fatalf("attempts = %d, want >= 2 after the kill", res.Attempts)
	}
	if res.Recovery <= 0 {
		t.Fatalf("recovery overhead = %g, want > 0", float64(res.Recovery))
	}
	for _, r := range res.Selection {
		if r == victim {
			t.Fatalf("final selection %v still contains the dead rank %d", res.Selection, victim)
		}
	}
	if len(c) != len(want) {
		t.Fatalf("C has %d elements, want %d", len(c), len(want))
	}
	for i := range want {
		if c[i] != want[i] {
			t.Fatalf("C[%d] = %v, want %v", i, c[i], want[i])
		}
	}
}
