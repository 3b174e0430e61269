package experiments

// The seeded degraded-network e2e: EM3D on the paper's nine-machine
// network under link chaos — probabilistic drops on one link, injected
// delay on another, and one transient partition — must complete with the
// right answer, declare no process failed (the zero-false-positive
// contract: a lossy link is not a dead peer), and leave a trace telling
// the whole story: injected faults, retransmissions, and the agreed
// degrade-reselect that routes the computation around the chronic link.
// The same seed must reproduce the same run bit for bit.

import (
	"fmt"
	"testing"

	"repro/internal/apps"
	"repro/internal/apps/em3d"
	"repro/internal/chaos"
	"repro/internal/hmpi"
	"repro/internal/hnoc"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// chaosRun is the distilled outcome of one seeded degraded-network run,
// compared across repeats for reproducibility.
type chaosRun struct {
	time      vclock.Time
	attempts  int
	selection string
	counts    map[trace.Kind]int
	degraded  string
}

func runLinkChaosEM3D(t *testing.T, pr *em3d.Problem, spec string, seed int64) chaosRun {
	t.Helper()
	sched, err := chaos.Parse(spec, len(hnoc.Paper9().Machines))
	if err != nil {
		t.Fatalf("chaos spec %q: %v", spec, err)
	}
	rt, err := hmpi.New(hmpi.Config{Cluster: hnoc.Paper9()})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Finalize()
	rec := rt.EnableRecorder("em3d-linkchaos", trace.Options{})
	rt.EnableDegradation()
	if err := sched.Arm(rt.World(), seed, nil); err != nil {
		t.Fatal(err)
	}
	res, err := apps.Run(rt, &em3d.Program{Problem: pr, Opts: em3d.RunOptions{Iters: 5}}, apps.SelfHealing)
	if err != nil {
		t.Fatal(err)
	}
	// Zero false positives: lossy links and the transient partition must
	// never get a live process declared dead.
	for r := 0; r < rt.World().Size(); r++ {
		if rt.World().IsFailed(r) {
			t.Fatalf("link faults marked live process %d failed", r)
		}
	}
	d := rec.Data()
	counts := make(map[trace.Kind]int)
	for _, evs := range d.PerRank {
		for i := range evs {
			counts[evs[i].Kind]++
		}
	}
	return chaosRun{
		time:      res.Time,
		attempts:  res.Attempts,
		selection: fmt.Sprint(res.Selection),
		counts:    counts,
		degraded:  fmt.Sprint(rt.DegradedPairs()),
	}
}

func TestEM3DLinkChaosDegradedNetwork(t *testing.T) {
	pr, err := em3d.Generate(em3d.Config{P: 6, TotalNodes: 60_000, K: 1000, Light: true})
	if err != nil {
		t.Fatal(err)
	}
	// The failure-free pass reveals which ranks the model selects and how
	// long a clean run takes; the chaos schedule is aimed at them.
	base, err := apps.RunOn(hnoc.Paper9(), &em3d.Program{Problem: pr, Opts: em3d.RunOptions{Iters: 5}}, apps.SelfHealing)
	if err != nil {
		t.Fatal(err)
	}

	// Two adjacent non-host members: EM3D's ring exchange guarantees
	// traffic between them, so the chronic drop link sees real frames.
	var a, b = -1, -1
	for i := 0; i+1 < len(base.Selection); i++ {
		if base.Selection[i] != hmpi.HostRank && base.Selection[i+1] != hmpi.HostRank {
			a, b = base.Selection[i], base.Selection[i+1]
			break
		}
	}
	if a < 0 {
		t.Fatalf("selection %v has no adjacent non-host pair", base.Selection)
	}
	// A second adjacent pair for the delay fault and the transient
	// partition (reusing a..b would conflate the fault stories).
	var c, d = -1, -1
	for i := 0; i+1 < len(base.Selection); i++ {
		x, y := base.Selection[i], base.Selection[i+1]
		if x != hmpi.HostRank && y != hmpi.HostRank && x != a && y != a && x != b && y != b {
			c, d = x, y
			break
		}
	}
	if c < 0 {
		c, d = a, b // tiny selections: fall back to the same pair
	}
	partFrom := float64(base.Time) / 3

	// Chronic 40% loss on a-b (open-ended), 2ms extra delay on c-d, and a
	// 50ms partition between c and d a third of the way in — short enough
	// that the retransmit budget rides it out.
	spec := fmt.Sprintf("link:%d-%d@0:drop=0.4;link:%d-%d@0:delay=0.002;part:{%d}|{%d}@%g+0.05",
		a, b, c, d, c, d, partFrom)
	const seed = 42

	run1 := runLinkChaosEM3D(t, pr, spec, seed)

	if got := run1.counts[trace.KindLinkFault]; got == 0 {
		t.Error("no link_fault_injected events recorded")
	}
	if got := run1.counts[trace.KindRetransmit]; got < 3 {
		t.Errorf("retransmit events = %d, want >= 3 (chronic 40%% loss)", got)
	}
	if got := run1.counts[trace.KindDegrade]; got < 1 {
		t.Errorf("degrade_reselect events = %d, want >= 1 (link a-b crosses the threshold)", got)
	}
	if got := run1.counts[trace.KindKill]; got != 0 {
		t.Errorf("kill events = %d in a kill-free schedule", got)
	}
	if run1.attempts < 2 {
		t.Errorf("attempts = %d, want >= 2 (the degrade-reselect recreates the group)", run1.attempts)
	}
	// Paper9 places one process per machine, so the degraded machine pair
	// equals the world-rank pair.
	wantPair := [2]int{a, b}
	if wantPair[0] > wantPair[1] {
		wantPair[0], wantPair[1] = wantPair[1], wantPair[0]
	}
	if run1.degraded != fmt.Sprint([][2]int{wantPair}) {
		t.Errorf("DegradedPairs = %s, want %v", run1.degraded, [][2]int{wantPair})
	}

	// Seeded reproducibility: the identical spec and seed replay the run
	// bit for bit — same virtual makespan, same recovery story, same
	// event counts.
	run2 := runLinkChaosEM3D(t, pr, spec, seed)
	if run1.time != run2.time {
		t.Errorf("virtual time not reproducible: %v vs %v", run1.time, run2.time)
	}
	if run1.attempts != run2.attempts || run1.selection != run2.selection || run1.degraded != run2.degraded {
		t.Errorf("recovery story not reproducible: %+v vs %+v", run1, run2)
	}
	for _, k := range []trace.Kind{trace.KindLinkFault, trace.KindRetransmit, trace.KindDegrade, trace.KindGroupRecreate} {
		if run1.counts[k] != run2.counts[k] {
			t.Errorf("event kind %v count not reproducible: %d vs %d", k, run1.counts[k], run2.counts[k])
		}
	}

	// A different seed draws different faults (the filter is seed-keyed);
	// the run still completes with no false positives.
	run3 := runLinkChaosEM3D(t, pr, spec, seed+1)
	if run3.counts[trace.KindRetransmit] == run1.counts[trace.KindRetransmit] &&
		run3.time == run1.time {
		t.Log("note: seeds 42 and 43 produced identical runs (possible but unlikely)")
	}
}
