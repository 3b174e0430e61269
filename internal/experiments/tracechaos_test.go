package experiments

// Tracing a self-healing run: the recorder must capture the whole fault
// story — the injected kills, the revocations and agreements of the
// recovery protocol, and the group lifecycle of the resilient loop (one
// creation, then one recreation per recovery).

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/apps/em3d"
	"repro/internal/hmpi"
	"repro/internal/hnoc"
	"repro/internal/trace"
)

func TestTracedChaosRunRecordsFaultStory(t *testing.T) {
	pr, err := em3d.Generate(em3d.Config{P: 6, TotalNodes: 60_000, K: 1000, Light: true})
	if err != nil {
		t.Fatal(err)
	}
	// A failure-free pass sizes the kill schedule.
	base, err := apps.RunOn(hnoc.Paper9(), &em3d.Program{Problem: pr, Opts: em3d.RunOptions{Iters: 5}}, apps.SelfHealing)
	if err != nil {
		t.Fatal(err)
	}

	const kills = 2
	rt, err := hmpi.New(hmpi.Config{Cluster: hnoc.Paper9()})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Finalize()
	rec := rt.EnableRecorder("em3d-chaos", trace.Options{})
	if err := killSchedule(base.Selection, base.Time, kills).Attach(rt.World(), nil); err != nil {
		t.Fatal(err)
	}
	res, err := apps.Run(rt, &em3d.Program{Problem: pr, Opts: em3d.RunOptions{Iters: 5}}, apps.SelfHealing)
	if err != nil {
		t.Fatal(err)
	}
	if res.Attempts != kills+1 {
		t.Fatalf("attempts = %d, want %d", res.Attempts, kills+1)
	}

	d := rec.Data()
	count := func(k trace.Kind) int {
		n := 0
		for _, evs := range d.PerRank {
			for i := range evs {
				if evs[i].Kind == k {
					n++
				}
			}
		}
		return n
	}
	if got := count(trace.KindKill); got != kills {
		t.Errorf("kill events = %d, want %d", got, kills)
	}
	if got := count(trace.KindGroupCreate); got != 1 {
		t.Errorf("group_create events = %d, want 1", got)
	}
	if got := count(trace.KindGroupRecreate); got != kills {
		t.Errorf("group_recreate events = %d, want %d", got, kills)
	}
	if count(trace.KindRevoke) == 0 || count(trace.KindAgree) == 0 {
		t.Error("recovery protocol events missing (revoke/agree)")
	}
	// Each lifecycle event must carry the selection-search statistics.
	for _, evs := range d.PerRank {
		for _, e := range evs {
			if e.Kind == trace.KindGroupCreate || e.Kind == trace.KindGroupRecreate {
				if e.Bytes <= 0 {
					t.Errorf("group event without a member count: %+v", e)
				}
			}
		}
	}
}
