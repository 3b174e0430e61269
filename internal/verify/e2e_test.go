package verify_test

// End-to-end: record real runs of the HMPI runtime — a clean
// model-selected group and a chaos run with a mid-work failure and ULFM
// recovery — and check that the verifier finds nothing wrong with
// either. These are the acceptance runs: the verifier must stay silent
// on correct executions, recreates included, or its violations mean
// nothing.

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/apps/em3d"
	"repro/internal/hmpi"
	"repro/internal/hnoc"
	"repro/internal/mpi"
	"repro/internal/pmdl"
	"repro/internal/trace"
	"repro/internal/verify"
)

// ringModelSrc is the small irregular model the hmpi tests use: p
// processors exchanging boundary data in a ring.
const ringModelSrc = `
algorithm Ring(int p, int v[p], int b) {
  coord I=p;
  link (L=p) {
    I>=0 && ((L+1) % p == I) : length*(b*sizeof(double)) [L]->[I];
  };
  node {I>=0: bench*(v[I]);};
  parent[0];
  scheme {
    int i, l;
    par (i = 0; i < p; i++)
      par (l = 0; l < p; l++)
        if ((l+1) % p == i) 100%%[l]->[i];
    par (i = 0; i < p; i++) 100%%[i];
  };
}
`

func ringModel(t *testing.T) *pmdl.Model {
	t.Helper()
	m, err := pmdl.ParseModel(ringModelSrc)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// runWithTimeout guards against hangs in failure paths.
func runWithTimeout(t *testing.T, rt *hmpi.Runtime, d time.Duration, main func(h *hmpi.Process) error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- rt.Run(main) }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatalf("runtime did not finish within %v", d)
		return nil
	}
}

// count tallies events of one kind across the snapshot.
func count(d *trace.Data, k trace.Kind) int {
	n := 0
	d.EachEvent(func(_ int, e trace.Event) bool {
		if e.Kind == k {
			n++
		}
		return true
	})
	return n
}

func TestE2ECleanRunVerifies(t *testing.T) {
	rt, err := hmpi.New(hmpi.Config{Cluster: hnoc.Homogeneous(4, 10)})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Finalize()
	model := ringModel(t)
	rec := rt.EnableRecorder("verify-e2e-clean", trace.Options{})
	err = runWithTimeout(t, rt, 30*time.Second, func(h *hmpi.Process) error {
		return h.RunResilient(hmpi.FixedPlan(model, 3, []int{1, 1, 1}, 1), func(g *hmpi.Group) error {
			comm := g.Comm()
			sum := comm.Allreduce([]byte{1}, func(inout, in []byte) { inout[0] += in[0] })
			_ = sum
			// A directed exchange on top of the collective, so the trace
			// has application point-to-point traffic to match too.
			me := g.Rank()
			next := (me + 1) % g.Size()
			prev := (me - 1 + g.Size()) % g.Size()
			data, _ := comm.Sendrecv(next, 30, []byte{byte(me)}, prev, 30)
			if data[0] != byte(prev) {
				t.Errorf("ring exchange corrupted: got %d, want %d", data[0], prev)
			}
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	d := rec.Data()
	if count(d, trace.KindGroupCreate) == 0 {
		t.Fatal("trace has no group_create; the run exercised nothing")
	}
	rep, err := verify.Run(d)
	if err != nil {
		t.Fatal(err)
	}
	if v := rep.Violations(); len(v) != 0 {
		t.Fatalf("clean run produced violations:\n%v", v)
	}
}

func TestE2EChaosRecreateVerifies(t *testing.T) {
	rt, err := hmpi.New(hmpi.Config{Cluster: hnoc.Homogeneous(5, 10)})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Finalize()
	model := ringModel(t)
	rec := rt.EnableRecorder("verify-e2e-chaos", trace.Options{})
	var killed atomic.Bool
	err = runWithTimeout(t, rt, 60*time.Second, func(h *hmpi.Process) error {
		return h.RunResilient(hmpi.FixedPlan(model, 3, []int{1, 1, 1}, 1), func(g *hmpi.Group) error {
			if h.Rank() != hmpi.HostRank && killed.CompareAndSwap(false, true) {
				// Record the kill the way the chaos engine does, so the
				// verifier can excuse the victim's unfinished business.
				rt.World().RecordKill(h.Rank(), h.Proc().Now())
				rt.InjectFailure(h.Rank())
				panic(&mpi.KilledError{Rank: h.Rank()})
			}
			sum := g.Comm().Allreduce([]byte{1}, func(inout, in []byte) { inout[0] += in[0] })
			_ = sum
			return nil
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	d := rec.Data()
	if count(d, trace.KindKill) == 0 || count(d, trace.KindGroupRecreate) == 0 {
		t.Fatal("trace shows no kill/recreate; the chaos path did not run")
	}
	// The recreate dissolved the old group and the run freed the new one;
	// nothing may fire.
	rep, err := verify.Run(d)
	if err != nil {
		t.Fatal(err)
	}
	if v := rep.Violations(); len(v) != 0 {
		t.Fatalf("chaos run with recovery produced violations:\n%v", v)
	}
}

// TestGroupLeak: a leaked group is found by the run, not by the trace. A
// recorded run whose members return without GroupFree fails with the
// leak, its trace — a group_create with no group_free — verifies clean,
// and groups is not a check.
func TestGroupLeak(t *testing.T) {
	rt, err := hmpi.New(hmpi.Config{Cluster: hnoc.Homogeneous(3, 10)})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Finalize()
	model := ringModel(t)
	rec := rt.EnableRecorder("verify-e2e-leak", trace.Options{})
	err = runWithTimeout(t, rt, 30*time.Second, func(h *hmpi.Process) error {
		g, err := h.GroupCreate(model, 3, []int{1, 1, 1}, 1)
		if err != nil {
			return err
		}
		g.Comm().Barrier()
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "still a member of group 1: missing GroupFree") {
		t.Fatalf("Run = %v, want the leaked group reported", err)
	}
	d := rec.Data()
	if count(d, trace.KindGroupCreate) == 0 || count(d, trace.KindGroupFree) != 0 {
		t.Fatal("trace does not show a group created and never freed")
	}
	rep, err := verify.Run(d)
	if err != nil {
		t.Fatal(err)
	}
	if v := rep.Violations(); len(v) != 0 {
		t.Fatalf("leaked group's trace produced violations:\n%v", v)
	}
	if _, err := verify.Run(d, "groups"); err == nil {
		t.Fatal("groups must be an unknown check")
	}
}

// TestE2EOverlapRunVerifies records a real overlapped EM3D run — Irecvs
// posted early, interior compute, waits, pipelined Isends — and checks
// that every traced request lifecycle closes: the requests check must
// stay silent on the overlap schedule, and nothing else may fire.
func TestE2EOverlapRunVerifies(t *testing.T) {
	rt, err := hmpi.New(hmpi.Config{Cluster: hnoc.Paper9()})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Finalize()
	rec := rt.EnableRecorder("verify-e2e-overlap", trace.Options{})
	pr, err := em3d.Generate(em3d.Config{P: 5, TotalNodes: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := apps.Run(rt, &em3d.Program{Problem: pr, Opts: em3d.RunOptions{Iters: 3, RealMath: true, Overlap: true}}, apps.HMPI); err != nil {
		t.Fatal(err)
	}
	d := rec.Data()
	if count(d, trace.KindIrecv) == 0 || count(d, trace.KindIsend) == 0 || count(d, trace.KindWait) == 0 {
		t.Fatalf("trace shows no request lifecycle events (irecv=%d isend=%d wait=%d); the overlap path did not run",
			count(d, trace.KindIrecv), count(d, trace.KindIsend), count(d, trace.KindWait))
	}
	rep, err := verify.Run(d)
	if err != nil {
		t.Fatal(err)
	}
	if v := rep.Violations(); len(v) != 0 {
		t.Fatalf("overlapped run produced violations:\n%v", v)
	}
}

// TestE2EWrappedRingKeepsNewest runs one deterministic job twice, once with
// room for every event and once with eight slots per rank: the small ring
// must hold exactly the newest eight of each rank (the simulated fields are
// the same run to run; the wall-clock ones are not compared), count the
// rest as dropped, and the verifier must say the trace is not sound.
func TestE2EWrappedRingKeepsNewest(t *testing.T) {
	const shardCap = 8
	record := func(opts trace.Options) *trace.Data {
		rt, err := hmpi.New(hmpi.Config{Cluster: hnoc.Paper9()})
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Finalize()
		rec := rt.EnableRecorder("em3d", opts)
		pr, err := em3d.Generate(em3d.Config{P: 6, TotalNodes: 6000, Light: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := apps.Run(rt, &em3d.Program{Problem: pr, Opts: em3d.RunOptions{Iters: 2}}, apps.HMPI); err != nil {
			t.Fatal(err)
		}
		return rec.Data()
	}
	full, small := record(trace.Options{}), record(trace.Options{ShardCap: shardCap})
	if full.Meta.Dropped != 0 {
		t.Fatalf("the reference run dropped %d events", full.Meta.Dropped)
	}
	if want := int64(full.NumEvents() - small.NumEvents()); small.Meta.Dropped != want || want == 0 {
		t.Fatalf("Dropped = %d, want %d (> 0)", small.Meta.Dropped, want)
	}
	for rank, all := range full.PerRank {
		got, want := small.PerRank[rank], all[max(0, len(all)-shardCap):]
		if len(got) != len(want) {
			t.Fatalf("rank %d retained %d events, want %d", rank, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			g.WallStart, g.WallEnd, w.WallStart, w.WallEnd = 0, 0, 0, 0
			if g != w {
				t.Errorf("rank %d event %d = %+v, want %+v", rank, i, g, w)
			}
		}
	}
	rep, err := verify.Run(small)
	if err != nil {
		t.Fatal(err)
	}
	warned := false
	for _, f := range rep.Findings {
		warned = warned || strings.Contains(f.Message, "dropped from the recording ring")
	}
	if !warned {
		t.Fatalf("verifier did not flag the wrapped trace: %v", rep.Findings)
	}
}
