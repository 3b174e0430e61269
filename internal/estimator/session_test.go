package estimator

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/hnoc"
	"repro/internal/pmdl"
)

const ringSrc = `
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

// paper9Ring builds a 5-processor ring estimator on the paper's
// 9-workstation network, one process per machine.
func paper9Ring(t *testing.T) *Estimator {
	t.Helper()
	m, err := pmdl.ParseModel(ringSrc)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := m.Instantiate(5, []int{300, 100, 250, 80, 120}, 4096)
	if err != nil {
		t.Fatal(err)
	}
	cluster := hnoc.Paper9()
	placement := make([]int, cluster.Size())
	for i := range placement {
		placement[i] = i
	}
	e, err := New(inst, cluster, cluster.Speeds(), placement)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// ringCandidates enumerates a deterministic spread of injective candidates
// over the 9 ranks.
func ringCandidates() [][]int {
	var out [][]int
	state := uint64(0x243F6A8885A308D3)
	next := func(n int) int {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return int(state % uint64(n))
	}
	for k := 0; k < 60; k++ {
		perm := []int{0, 1, 2, 3, 4, 5, 6, 7, 8}
		for i := len(perm) - 1; i > 0; i-- {
			j := next(i + 1)
			perm[i], perm[j] = perm[j], perm[i]
		}
		out = append(out, perm[:5])
	}
	return out
}

// TestSessionMatchesTimeof pins a session reused across candidates to the
// Estimator's entry points, which evaluate each candidate in a session of
// its own, bit for bit — and the NIC ablation to the one call that asked
// for it.
func TestSessionMatchesTimeof(t *testing.T) {
	e := paper9Ring(t)
	s := e.Session()
	for _, cand := range ringCandidates() {
		want := e.Timeof(cand)
		if ideal := e.TimeofWith(cand, false); ideal > want {
			t.Fatalf("TimeofWith(%v, false) = %v exceeds the serialised %v", cand, ideal, want)
		}
		if got := s.Timeof(cand); got != want {
			t.Fatalf("session Timeof(%v) = %v, want %v", cand, got, want)
		}
		if got := e.TimeofWith(cand, true); got != want {
			t.Fatalf("TimeofWith(%v, true) = %v, want %v", cand, got, want)
		}
	}
}

// TestSessionAllocationFree pins the point of the session: steady-state
// candidate evaluation must not allocate.
func TestSessionAllocationFree(t *testing.T) {
	e := paper9Ring(t)
	s := e.Session()
	cand := []int{0, 2, 4, 6, 8}
	s.Timeof(cand) // warm up the scratch
	allocs := testing.AllocsPerRun(50, func() {
		s.Timeof(cand)
	})
	if allocs != 0 {
		t.Fatalf("Session.Timeof allocates %v objects per candidate, want 0", allocs)
	}
}

// TestSessionsConcurrent exercises many sessions of one estimator from
// many goroutines (the race detector in CI validates the sharing claim).
func TestSessionsConcurrent(t *testing.T) {
	e := paper9Ring(t)
	cands := ringCandidates()
	want := make([]float64, len(cands))
	for i, c := range cands {
		want[i] = e.Timeof(c)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := e.Session()
			for i, c := range cands {
				if got := s.Timeof(c); got != want[i] {
					t.Errorf("concurrent Timeof(%v) = %v, want %v", c, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestCanonicalKeySymmetry: the six identical 46-speed workstations of the
// paper network are interchangeable — candidates that differ only by which
// of them they use share a key and a prediction.
func TestCanonicalKeySymmetry(t *testing.T) {
	e := paper9Ring(t)
	a := []int{0, 1, 2, 3, 4}
	b := []int{1, 2, 3, 4, 5} // same speeds, different identical machines
	ka := e.AppendCanonicalKey(nil, a)
	kb := e.AppendCanonicalKey(nil, b)
	if !bytes.Equal(ka, kb) {
		t.Fatalf("keys differ for symmetric candidates %v and %v", a, b)
	}
	if ta, tb := e.Timeof(a), e.Timeof(b); ta != tb {
		t.Fatalf("equal keys but Timeof %v != %v", ta, tb)
	}
	c := []int{0, 1, 2, 3, 6} // the 176-speed machine breaks the symmetry
	if bytes.Equal(ka, e.AppendCanonicalKey(nil, c)) {
		t.Fatalf("key ignores the speed of candidate %v", c)
	}
}

// TestCanonicalKeyEqualImpliesEqualTime is the safety property behind the
// symmetry cache: over many random candidate pairs, equal keys must imply
// bit-identical predictions.
func TestCanonicalKeyEqualImpliesEqualTime(t *testing.T) {
	e := paper9Ring(t)
	cands := ringCandidates()
	type scored struct {
		key  string
		time float64
		cand []int
	}
	var all []scored
	for _, c := range cands {
		all = append(all, scored{string(e.AppendCanonicalKey(nil, c)), e.Timeof(c), c})
	}
	collisions := 0
	for i := range all {
		for j := i + 1; j < len(all); j++ {
			if all[i].key == all[j].key {
				collisions++
				if all[i].time != all[j].time {
					t.Fatalf("candidates %v and %v share a key but predict %v and %v",
						all[i].cand, all[j].cand, all[i].time, all[j].time)
				}
			}
		}
	}
	if collisions == 0 {
		t.Fatal("no symmetric pairs among the random candidates; the test lost its teeth")
	}
}

// TestCanonicalKeyColocation: the key must not conflate candidates that
// co-locate processes (sharing a machine's speed) with candidates that
// spread them.
func TestCanonicalKeyColocation(t *testing.T) {
	m, err := pmdl.ParseModel(ringSrc)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := m.Instantiate(2, []int{100, 100}, 1024)
	if err != nil {
		t.Fatal(err)
	}
	cluster := hnoc.Homogeneous(2, 50)
	// Two processes per machine, all the same speed.
	placement := []int{0, 0, 1, 1}
	speeds := []float64{50, 50, 50, 50}
	e, err := New(inst, cluster, speeds, placement)
	if err != nil {
		t.Fatal(err)
	}
	colocated := []int{0, 1} // both on machine 0: speeds halve
	spread := []int{0, 2}    // one per machine
	if bytes.Equal(e.AppendCanonicalKey(nil, colocated), e.AppendCanonicalKey(nil, spread)) {
		t.Fatal("key conflates co-located and spread candidates")
	}
	// Same shape on relabelled machines/processes must collapse.
	spread2 := []int{1, 3}
	if !bytes.Equal(e.AppendCanonicalKey(nil, spread), e.AppendCanonicalKey(nil, spread2)) {
		t.Fatal("key distinguishes relabelled equivalent candidates")
	}
	if e.Timeof(spread) != e.Timeof(spread2) {
		t.Fatal("relabelled equivalent candidates predict different times")
	}
}

// TestLowerBoundSound: the branch-and-bound bound must never exceed the
// true objective of any completion.
func TestLowerBoundSound(t *testing.T) {
	e := paper9Ring(t)
	for _, cand := range ringCandidates() {
		full := []bool{true, true, true, true, true}
		lb := e.LowerBound(cand, full)
		if truth := e.Timeof(cand); lb > truth {
			t.Fatalf("LowerBound(%v) = %v exceeds Timeof %v", cand, lb, truth)
		}
		// A partial bound must not exceed the full bound of any
		// completion; check the prefix mask against this completion.
		partial := []bool{true, true, false, false, false}
		if plb := e.LowerBound(cand, partial); plb > e.Timeof(cand) {
			t.Fatalf("partial LowerBound(%v) = %v exceeds a completion's Timeof %v", cand, plb, e.Timeof(cand))
		}
	}
}

// TestClassifyMachines pins the interchangeability classes on a network
// with genuinely different links: machines within a rack are equivalent,
// machines across racks are not.
func TestClassifyMachines(t *testing.T) {
	c := hnoc.Homogeneous(4, 50) // two racks of two: a slower uplink between the racks
	c.Remote = hnoc.LinkSpec{Protocol: hnoc.ProtoTCP, Latency: 100e-6, Bandwidth: 100e6, Overhead: 10e-6}
	uplink := hnoc.LinkSpec{Protocol: hnoc.ProtoTCP, Latency: 1e-3, Bandwidth: 10e6, Overhead: 10e-6}
	for _, pair := range [][2]int{{0, 2}, {0, 3}, {1, 2}, {1, 3}} {
		c.Overrides = append(c.Overrides, hnoc.LinkOverride{A: pair[0], B: pair[1], Link: uplink})
	}
	got := classifyMachines(tabulate(c.LinkView()))
	want := []int{0, 0, 1, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("classes = %v, want %v", got, want)
		}
	}
	// The paper network is a uniform switch: every machine is one class.
	for i, cls := range classifyMachines(tabulate(hnoc.Paper9().LinkView())) {
		if cls != 0 {
			t.Fatalf("Paper9 machine %d in class %d, want 0", i, cls)
		}
	}
}

// TestProcessClassesContract is the safety property behind the orbit
// walk: on random clusters mixing interchangeable and distinct machines,
// one to three processes per machine and repeated speeds, exchanging any
// two ranks of one class in a candidate leaves Timeof and LowerBound
// bit-identical.
func TestProcessClassesContract(t *testing.T) {
	m, err := pmdl.ParseModel(ringSrc)
	if err != nil {
		t.Fatal(err)
	}
	state := uint64(0x13198A2E03707344)
	next := func(n int) int {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return int(state % uint64(n))
	}
	slow := hnoc.LinkSpec{Protocol: hnoc.ProtoTCP, Latency: 1e-3, Bandwidth: 10e6, Overhead: 10e-6}
	bus := hnoc.LinkSpec{Protocol: hnoc.ProtoSHM, Latency: 4e-6, Bandwidth: 600e6, Overhead: 2e-6}
	var crossMachine, sameMachine int
	for trial := 0; trial < 40; trial++ {
		machines := 3 + next(3)
		cluster := hnoc.Homogeneous(machines, 50)
		// Some machines get a faster bus or a slow uplink to machine 0:
		// both break their interchangeability with the rest.
		for mi := 1; mi < machines; mi++ {
			switch next(4) {
			case 0:
				cluster.Overrides = append(cluster.Overrides, hnoc.LinkOverride{A: mi, B: mi, Link: bus})
			case 1:
				cluster.Overrides = append(cluster.Overrides, hnoc.LinkOverride{A: 0, B: mi, Link: slow})
			}
		}
		var placement []int
		var speeds []float64
		for mi := 0; mi < machines; mi++ {
			for k := 1 + next(3); k > 0; k-- {
				placement = append(placement, mi)
				speeds = append(speeds, []float64{40, 50}[next(2)])
			}
		}
		var avail []int
		for r := range placement {
			if next(4) != 0 {
				avail = append(avail, r)
			}
		}
		p := 2 + next(2)
		if len(avail) < p {
			continue
		}
		vols := make([]int, p)
		for i := range vols {
			vols[i] = 50 + next(200)
		}
		inst, err := m.Instantiate(p, vols, 1024*(1+next(8)))
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(inst, cluster, speeds, placement)
		if err != nil {
			t.Fatal(err)
		}
		classes := e.ProcessClasses(avail)
		s := e.Session()
		all := []bool{true, true, true}[:p]
		for c := 0; c < 20; c++ {
			perm := append([]int(nil), avail...)
			for i := len(perm) - 1; i > 0; i-- {
				j := next(i + 1)
				perm[i], perm[j] = perm[j], perm[i]
			}
			cand := perm[:p]
			want, wantLB := s.Timeof(cand), e.LowerBound(cand, all)
			for i, a := range avail {
				for j, b := range avail[:i] {
					if classes[i] != classes[j] {
						continue
					}
					swapped := make([]int, p)
					for k, r := range cand {
						switch r {
						case a:
							r = b
						case b:
							r = a
						}
						swapped[k] = r
					}
					if got := s.Timeof(swapped); got != want {
						t.Fatalf("trial %d: ranks %d and %d share a class, but %v predicts %v and %v predicts %v",
							trial, a, b, cand, want, swapped, got)
					}
					if got := e.LowerBound(swapped, all); got != wantLB {
						t.Fatalf("trial %d: ranks %d and %d share a class, but LowerBound moves %v -> %v", trial, a, b, wantLB, got)
					}
					if placement[a] == placement[b] {
						sameMachine++
					} else {
						crossMachine++
					}
				}
			}
		}
	}
	if sameMachine == 0 || crossMachine == 0 {
		t.Fatalf("exchanges tested: %d on one machine, %d across machines; the test lost its teeth", sameMachine, crossMachine)
	}
}

// TestProcessClassesColocation pins the negative case: a rank that shares
// its machine is not interchangeable with an equal-speed rank alone on an
// interchangeable machine — exchanging them would turn a co-located
// candidate into a spread one — while the two co-located ranks are, and on
// the paper network the six identical workstations form one class.
func TestProcessClassesColocation(t *testing.T) {
	m, err := pmdl.ParseModel(ringSrc)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := m.Instantiate(2, []int{100, 100}, 1024)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(inst, hnoc.Homogeneous(2, 50), []float64{50, 50, 50}, []int{0, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	classes := e.ProcessClasses([]int{0, 1, 2})
	if classes[0] != classes[1] || classes[2] == classes[0] {
		t.Fatalf("classes %v, want ranks 0 and 1 together and rank 2 apart", classes)
	}
	if e.Timeof([]int{0, 1}) == e.Timeof([]int{0, 2}) {
		t.Fatal("fixture broken: co-located and spread candidates predict the same time")
	}
	got := paper9Ring(t).ProcessClasses([]int{0, 1, 2, 3, 4, 5, 6, 7, 8})
	for r := 1; r < 6; r++ {
		if got[r] != got[0] {
			t.Fatalf("Paper9 classes %v: the 46-speed workstations are not one class", got)
		}
	}
	if got[6] == got[0] || got[7] == got[0] || got[8] == got[0] || got[6] == got[7] || got[7] == got[8] {
		t.Fatalf("Paper9 classes %v: machines of distinct speed share a class", got)
	}
}
