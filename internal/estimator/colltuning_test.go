package estimator

import (
	"math"
	"testing"

	"repro/internal/hnoc"
	"repro/internal/mpi"
)

// interleaved3x8 stripes FatNode3x8's 24 ranks across its machines.
func interleaved3x8() []int {
	place := make([]int, 24)
	for i := range place {
		place[i] = i % 3
	}
	return place
}

// slowBusCluster is a synthetic fat-node topology whose buses are so slow
// per byte that the hierarchy's extra up-and-down bus transfers eat its
// Ethernet savings.
func slowBusCluster() (*hnoc.Cluster, []int) {
	slowBus := hnoc.LinkSpec{Protocol: hnoc.ProtoSHM, Latency: 5e-6, Bandwidth: 50e6, Overhead: 1e-6}
	return hnoc.FatNodes(
		[]float64{100, 100, 100},
		[]int{8, 8, 8},
		[]hnoc.LinkSpec{slowBus, slowBus, slowBus},
		hnoc.Ethernet100(),
	)
}

func TestAutoCollTuningNonViable(t *testing.T) {
	cl := hnoc.Paper9()
	tuning, err := AutoCollTuningFor(cl, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	// One process per machine: the thresholds stay at their (inert) defaults.
	if *tuning != *mpi.AutoCollTuning() {
		t.Fatalf("non-viable tuning %+v", tuning)
	}
	if _, err := AutoCollTuningFor(cl, []int{0, 99}); err == nil {
		t.Fatal("out-of-range machine accepted")
	}
}

// TestAutoCollTuningThresholds pins what the replay derives on the
// reference topologies. Unlike the closed forms it replaced (which
// charged every hop at the worst link and so could not tell placements
// apart), the replay sees that a blocked placement makes the flat
// rank-order trees two-level in disguise: there recursive doubling keeps
// small Allreduces and the hierarchical broadcast never wins, while on the
// interleaved placement the hierarchy wins from the first byte.
func TestAutoCollTuningThresholds(t *testing.T) {
	fat, blocked := hnoc.FatNode3x8()
	slow, slowPlace := slowBusCluster()
	const never = math.MaxInt
	for _, k := range []struct {
		name                               string
		cluster                            *hnoc.Cluster
		place                              []int
		allreduce, bcastLo, bcastHi, g, rs int
	}{
		{"fat3x8/blocked", fat, blocked, 32761, never, never, 398, 1},
		{"fat3x8/interleaved", fat, interleaved3x8(), 1, 12, never, 409, never},
		// A win region that closes again (or never opens) is inexpressible
		// as a MinBytes threshold, so the policy stays flat.
		{"slowbus/blocked", slow, slowPlace, never, never, never, 397, never},
	} {
		got, err := AutoCollTuningFor(k.cluster, k.place)
		if err != nil {
			t.Fatalf("%s: %v", k.name, err)
		}
		want := *mpi.AutoCollTuning()
		want.AllreduceHierMinBytes, want.BcastHierMinBytes, want.BcastHierMaxBytes = k.allreduce, k.bcastLo, k.bcastHi
		want.GatherHierMaxBytes, want.ReduceScatterHierMinBytes = k.g, k.rs
		if *got != want {
			t.Errorf("%s:\n got  %+v\n want %+v", k.name, *got, want)
		}
	}
}

// TestRingCrossoverOnPaper9: the payload from which the ring Allreduce
// beats reduce+broadcast for good on the paper's network.
func TestRingCrossoverOnPaper9(t *testing.T) {
	cl := hnoc.Paper9()
	x, err := CrossoverBytes(cl, mpi.OneProcessPerMachine(cl), "allreduce", &mpi.CollTuning{Allreduce: mpi.AllreduceRing}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if x != 3929 {
		t.Fatalf("ring crossover = %d bytes, want 3929", x)
	}
}

// sim runs one collective of nbytes under the tuning in a real World and
// returns the simulated makespan in virtual seconds.
func sim(t *testing.T, cl *hnoc.Cluster, place []int, tuning *mpi.CollTuning, coll string, nbytes int) float64 {
	t.Helper()
	return float64(run(t, cl, place, tuning, coll, nbytes).Makespan())
}

// run runs one collective of nbytes (rooted at rank 0) under the tuning in
// a real World and returns the world.
func run(t *testing.T, cl *hnoc.Cluster, place []int, tuning *mpi.CollTuning, coll string, nbytes int) *mpi.World {
	t.Helper()
	w := mpi.NewWorld(cl, place)
	w.SetCollTuning(tuning)
	if err := w.Run(func(p *mpi.Proc) error {
		switch coll {
		case "allreduce":
			p.CommWorld().Allreduce(make([]byte, nbytes), mpi.SumInt64)
		case "bcast":
			var data []byte
			if p.Rank() == 0 {
				data = make([]byte, nbytes)
			}
			p.CommWorld().Bcast(0, data)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return w
}

// TestBcastSendsAHeaderOnlyWhenNeeded: a broadcast whose members all
// resolve the binomial tree without the payload length sends the payload
// and nothing else — n-1 messages — under Auto on Paper9 (one level) and
// under the policy derived for FatNode3x8 blocked (its hierarchical band
// is empty); a forced segmented broadcast still sends its header, one
// more message per tree edge.
func TestBcastSendsAHeaderOnlyWhenNeeded(t *testing.T) {
	messages := func(w *mpi.World) (n int64) {
		for _, s := range w.Stats() {
			n += s.MsgsSent
		}
		return n
	}
	paper := hnoc.Paper9()
	fat, blocked := hnoc.FatNode3x8()
	derived, err := AutoCollTuningFor(fat, blocked)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []struct {
		name    string
		cluster *hnoc.Cluster
		place   []int
		tuning  *mpi.CollTuning
	}{
		{"paper9/auto", paper, mpi.OneProcessPerMachine(paper), mpi.AutoCollTuning()},
		{"fat3x8/blocked/derived", fat, blocked, derived},
	} {
		for _, nbytes := range []int{8, 1 << 10, 32 << 10, 512 << 10} {
			if got, want := messages(run(t, k.cluster, k.place, k.tuning, "bcast", nbytes)), int64(len(k.place)-1); got != want {
				t.Errorf("%s, %d bytes: %d messages, want %d", k.name, nbytes, got, want)
			}
		}
	}
	seg := &mpi.CollTuning{Bcast: mpi.BcastSegmented}
	if got := messages(run(t, paper, mpi.OneProcessPerMachine(paper), seg, "bcast", 1<<10)); got != 2*8 {
		t.Errorf("forced segmented, one segment: %d messages, want 16 (header and segment per edge)", got)
	}
}

// TestAutoMatchesSimulation: the algorithm the derived Auto policy picks
// is the one the simulator says is faster, and the policy's simulated time
// equals the winner's (Auto actually dispatches to it).
func TestAutoMatchesSimulation(t *testing.T) {
	cl, place := hnoc.FatNode3x8()
	tuning, err := AutoCollTuningFor(cl, place)
	if err != nil {
		t.Fatal(err)
	}
	// Forced baselines are copies of the derived tuning with only one
	// selector overridden, so the inner phases (the node broadcast inside
	// the hierarchical Allreduce, the net tier's own resolution) follow
	// the same policy as the Auto run.
	ringT, hierT := *tuning, *tuning
	ringT.Allreduce, hierT.Allreduce = mpi.AllreduceRing, mpi.AllreduceHier
	for _, nbytes := range []int{64 << 10, 1 << 20} {
		ring := sim(t, cl, place, &ringT, "allreduce", nbytes)
		hier := sim(t, cl, place, &hierT, "allreduce", nbytes)
		auto := sim(t, cl, place, tuning, "allreduce", nbytes)
		if hier >= ring {
			t.Fatalf("%d bytes: simulated hier %g >= ring %g, but the policy picked hier", nbytes, hier, ring)
		}
		if auto != hier {
			t.Fatalf("%d bytes: Auto simulated %g, hier %g — Auto did not dispatch hierarchically", nbytes, auto, hier)
		}
	}
	// On the blocked placement the flat broadcast tree already follows
	// the machines, so the policy keeps the hierarchy out of it — and the
	// simulator agrees.
	bhierT := *tuning
	bhierT.Bcast = mpi.BcastHier
	if auto, hier := sim(t, cl, place, tuning, "bcast", 64<<10), sim(t, cl, place, &bhierT, "bcast", 64<<10); auto > hier {
		t.Fatalf("64 KiB blocked Bcast: Auto simulated %g, forced hier %g — the policy kept the slower side", auto, hier)
	}
	// On the slow-bus topology the derived policy stays flat: well into
	// the large-message regime the flat ring really wins, and Auto's run
	// is identical to the forced-ring run.
	scl, splace := slowBusCluster()
	stuning, err := AutoCollTuningFor(scl, splace)
	if err != nil {
		t.Fatal(err)
	}
	sringT, shierT := *stuning, *stuning
	sringT.Allreduce, shierT.Allreduce = mpi.AllreduceRing, mpi.AllreduceHier
	ring := sim(t, scl, splace, &sringT, "allreduce", 1<<20)
	hier := sim(t, scl, splace, &shierT, "allreduce", 1<<20)
	auto := sim(t, scl, splace, stuning, "allreduce", 1<<20)
	if hier <= ring {
		t.Fatalf("slow buses, 1 MiB: simulated hier %g <= ring %g", hier, ring)
	}
	if auto != ring {
		t.Fatalf("slow buses, 1 MiB: Auto simulated %g, ring %g — Auto did not stay flat", auto, ring)
	}
}

// TestWinBandSearch: the search finds a single band's edges to the byte —
// also a band that fits between two powers of two — and reports no band
// when the win region is not one band, so the policy stays flat.
func TestWinBandSearch(t *testing.T) {
	const never = math.MaxInt
	between := func(lo, hi int) func(int) bool { return func(x int) bool { return lo <= x && x <= hi } }
	for _, k := range []struct {
		name   string
		win    func(int) bool
		lo, hi int
	}{
		{"never", func(int) bool { return false }, never, never},
		{"always", func(int) bool { return true }, 1, never},
		{"from a crossover up", func(x int) bool { return x >= 3929 }, 3929, never},
		{"up to a crossover", func(x int) bool { return x <= 884736 }, 1, 884736},
		{"inside one octave", between(1100, 1500), 1100, 1500},
		{"two bands", func(x int) bool { return between(64, 4096)(x) || x >= 1<<20 }, never, never},
	} {
		if lo, hi := winBandBytes(k.win); lo != k.lo || hi != k.hi {
			t.Errorf("%s: band [%d, %d], want [%d, %d]", k.name, lo, hi, k.lo, k.hi)
		}
	}
	if got := minStableWinBytes(between(64, 4096)); got != never {
		t.Errorf("a band that closes again gave MinBytes %d, want never", got)
	}
	if got := maxWinningBytes(between(64, 4096)); got != 0 {
		t.Errorf("a band that does not start at the first byte gave MaxBytes %d, want 0", got)
	}
}
