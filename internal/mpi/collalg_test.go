package mpi

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/trace"
)

// runTuned runs main on an n-process world with the given tuning, under
// the in-process transport or TCP.
func runTuned(t *testing.T, n int, tcp bool, tuning *CollTuning, main func(p *Proc) error) {
	t.Helper()
	c := testCluster(n)
	if tcp {
		w, closeT, err := newWorldTCPOpts(c, OneProcessPerMachine(c), tcpOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer closeT()
		w.SetCollTuning(tuning)
		if err := w.Run(main); err != nil {
			t.Fatal(err)
		}
		return
	}
	w := NewWorld(c, OneProcessPerMachine(c))
	w.SetCollTuning(tuning)
	if err := w.Run(main); err != nil {
		t.Fatal(err)
	}
}

// contribution is the deterministic per-rank test vector: elems int64
// values derived from the rank.
func contribution(rank, elems int) []int64 {
	out := make([]int64, elems)
	for i := range out {
		out[i] = int64((rank+1)*1000003 + i*7919 - 500)
	}
	return out
}

func transports(tcp bool) string {
	if tcp {
		return "tcp"
	}
	return "inproc"
}

// TestAllreduceAlgorithmsMatchLegacy: every Allreduce algorithm produces
// the serial fold bit-exactly, on every communicator size 1..9 including
// non-powers-of-two, for empty, single, odd and large element counts, on
// both transports.
func TestAllreduceAlgorithmsMatchLegacy(t *testing.T) {
	algs := []struct {
		name string
		alg  AllreduceAlg
	}{
		{"recdbl", AllreduceRecursiveDoubling},
		{"ring", AllreduceRing},
		{"auto", AllreduceAuto},
	}
	for _, tcp := range []bool{false, true} {
		sizes := []int{0, 1, 3, 8, 1024}
		ns := []int{1, 2, 3, 4, 5, 6, 7, 8, 9}
		if tcp {
			sizes = []int{3, 1024} // keep the wire matrix affordable
			ns = []int{1, 2, 3, 5, 8, 9}
		}
		for _, n := range ns {
			for _, a := range algs {
				for _, elems := range sizes {
					name := fmt.Sprintf("%s/n%d/%s/e%d", transports(tcp), n, a.name, elems)
					t.Run(name, func(t *testing.T) {
						want := make([]int64, elems)
						for r := 0; r < n; r++ {
							for i, v := range contribution(r, elems) {
								want[i] += v
							}
						}
						runTuned(t, n, tcp, &CollTuning{Allreduce: a.alg}, func(p *Proc) error {
							got := BytesInt64(p.CommWorld().Allreduce(Int64Bytes(contribution(p.Rank(), elems)), SumInt64))
							if len(got) != len(want) {
								return fmt.Errorf("rank %d: got %d elems, want %d", p.Rank(), len(got), len(want))
							}
							for i := range want {
								if got[i] != want[i] {
									return fmt.Errorf("rank %d elem %d: got %d, want %d", p.Rank(), i, got[i], want[i])
								}
							}
							return nil
						})
					})
				}
			}
		}
	}
}

// TestAllreduceRingUnalignedPanics: the explicit ring requires an
// element-aligned payload and says so.
func TestAllreduceRingUnalignedPanics(t *testing.T) {
	c := testCluster(3)
	w := NewWorld(c, OneProcessPerMachine(c))
	w.SetCollTuning(&CollTuning{Allreduce: AllreduceRing})
	err := w.Run(func(p *Proc) error {
		p.CommWorld().Allreduce(make([]byte, 5), SumInt64)
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "element size") {
		t.Fatalf("err = %v, want element-size panic", err)
	}
}

// TestBcastAlgorithmsMatchLegacy: segmented and auto broadcast deliver
// the root's bytes exactly, for every root, sizes 0/1/odd/large, both
// transports.
func TestBcastAlgorithmsMatchLegacy(t *testing.T) {
	algs := []struct {
		name string
		alg  BcastAlg
	}{
		{"seg", BcastSegmented},
		{"auto", BcastAuto},
	}
	payload := func(root, size int) []byte {
		out := make([]byte, size)
		for i := range out {
			out[i] = byte(root*31 + i)
		}
		return out
	}
	for _, tcp := range []bool{false, true} {
		sizes := []int{0, 1, 7, 100_000}
		ns := []int{1, 2, 3, 4, 5, 6, 7, 8, 9}
		if tcp {
			sizes = []int{7, 100_000}
			ns = []int{2, 5, 9}
		}
		for _, n := range ns {
			for _, a := range algs {
				for _, size := range sizes {
					for root := 0; root < n; root++ {
						if tcp && root != 0 && root != n-1 {
							continue
						}
						name := fmt.Sprintf("%s/n%d/%s/s%d/root%d", transports(tcp), n, a.name, size, root)
						t.Run(name, func(t *testing.T) {
							want := payload(root, size)
							runTuned(t, n, tcp, &CollTuning{Bcast: a.alg}, func(p *Proc) error {
								var data []byte
								if p.Rank() == root {
									data = payload(root, size)
								}
								got := p.CommWorld().Bcast(root, data)
								if !bytes.Equal(got, want) {
									return fmt.Errorf("rank %d: bcast mismatch (%d vs %d bytes)", p.Rank(), len(got), len(want))
								}
								return nil
							})
						})
					}
				}
			}
		}
	}
}

// TestGatherScatterAlgorithmsMatchLegacy: the binomial trees and Auto
// produce exactly the flat trees' results for every root and size 1..9,
// including variable per-rank sizes (explicit binomial), both transports.
func TestGatherScatterAlgorithmsMatchLegacy(t *testing.T) {
	rankData := func(r, base int) []byte {
		out := make([]byte, base)
		for i := range out {
			out[i] = byte(r*17 + i)
		}
		return out
	}
	for _, tcp := range []bool{false, true} {
		ns := []int{1, 2, 3, 4, 5, 6, 7, 8, 9}
		if tcp {
			ns = []int{2, 5, 9}
		}
		for _, n := range ns {
			for _, variable := range []bool{false, true} {
				for root := 0; root < n; root++ {
					if tcp && root != 0 && root != n-1 {
						continue
					}
					sizeOf := func(r int) int {
						if variable {
							return (r*5)%13 + 1
						}
						return 9
					}
					name := fmt.Sprintf("%s/n%d/var%v/root%d", transports(tcp), n, variable, root)
					t.Run("gather/"+name, func(t *testing.T) {
						runTuned(t, n, tcp, &CollTuning{Gather: GatherBinomial}, func(p *Proc) error {
							got := p.CommWorld().Gather(root, rankData(p.Rank(), sizeOf(p.Rank())))
							if p.Rank() != root {
								if got != nil {
									return fmt.Errorf("non-root got non-nil gather result")
								}
								return nil
							}
							for r := 0; r < n; r++ {
								if !bytes.Equal(got[r], rankData(r, sizeOf(r))) {
									return fmt.Errorf("root: out[%d] mismatch", r)
								}
							}
							return nil
						})
					})
					t.Run("scatter/"+name, func(t *testing.T) {
						runTuned(t, n, tcp, &CollTuning{Scatter: ScatterBinomial}, func(p *Proc) error {
							var parts [][]byte
							if p.Rank() == root {
								parts = make([][]byte, n)
								for r := 0; r < n; r++ {
									parts[r] = rankData(r, sizeOf(r))
								}
							}
							got := p.CommWorld().Scatter(root, parts)
							if !bytes.Equal(got, rankData(p.Rank(), sizeOf(p.Rank()))) {
								return fmt.Errorf("rank %d: scatter part mismatch", p.Rank())
							}
							return nil
						})
					})
				}
			}
		}
	}
	// Auto selection end-to-end (agreed sizes: a small payload on 9 ranks
	// gathers flat and scatters down the tree, the result must be
	// unchanged).
	runTuned(t, 9, false, &CollTuning{Gather: GatherAuto, Scatter: ScatterAuto}, func(p *Proc) error {
		comm := p.CommWorld()
		got := comm.Gather(3, rankData(p.Rank(), 9))
		if p.Rank() == 3 {
			for r := 0; r < 9; r++ {
				if !bytes.Equal(got[r], rankData(r, 9)) {
					return fmt.Errorf("auto gather: out[%d] mismatch", r)
				}
			}
		}
		var parts [][]byte
		if p.Rank() == 3 {
			parts = make([][]byte, 9)
			for r := range parts {
				parts[r] = rankData(r, 9)
			}
		}
		if !bytes.Equal(comm.Scatter(3, parts), rankData(p.Rank(), 9)) {
			return fmt.Errorf("auto scatter: part mismatch on rank %d", p.Rank())
		}
		return nil
	})
}

// TestReduceScatterPairwiseMatchesLegacy: the pairwise algorithm returns
// exactly what the legacy via-root algorithm returns, including variable
// per-destination sizes, on sizes 1..9 and both transports.
func TestReduceScatterPairwiseMatchesLegacy(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		ns := []int{1, 2, 3, 4, 5, 6, 7, 8, 9}
		if tcp {
			ns = []int{2, 5, 9}
		}
		for _, n := range ns {
			t.Run(fmt.Sprintf("%s/n%d", transports(tcp), n), func(t *testing.T) {
				elemsOf := func(dst int) int { return (dst*3)%5 + 1 }
				want := make([][]int64, n)
				for dst := 0; dst < n; dst++ {
					want[dst] = make([]int64, elemsOf(dst))
					for src := 0; src < n; src++ {
						for i, v := range contribution(src*10+dst, elemsOf(dst)) {
							want[dst][i] += v
						}
					}
				}
				runTuned(t, n, tcp, &CollTuning{ReduceScatter: ReduceScatterPairwise}, func(p *Proc) error {
					parts := make([][]byte, n)
					for dst := 0; dst < n; dst++ {
						parts[dst] = Int64Bytes(contribution(p.Rank()*10+dst, elemsOf(dst)))
					}
					got := BytesInt64(p.CommWorld().ReduceScatter(parts, SumInt64))
					if len(got) != len(want[p.Rank()]) {
						return fmt.Errorf("rank %d: got %d elems, want %d", p.Rank(), len(got), len(want[p.Rank()]))
					}
					for i := range got {
						if got[i] != want[p.Rank()][i] {
							return fmt.Errorf("rank %d elem %d: got %d, want %d", p.Rank(), i, got[i], want[p.Rank()][i])
						}
					}
					return nil
				})
			})
		}
	}
}

// TestReduceScatterSizeMismatchPanics: disagreeing per-destination sizes
// are detected up front with a clear message on every rank (not a
// confusing Reduce panic on rank 0 while everyone else hangs).
func TestReduceScatterSizeMismatchPanics(t *testing.T) {
	for _, tuning := range []*CollTuning{nil, {ReduceScatter: ReduceScatterPairwise}} {
		c := testCluster(3)
		w := NewWorld(c, OneProcessPerMachine(c))
		w.SetCollTuning(tuning)
		err := w.Run(func(p *Proc) error {
			parts := [][]byte{make([]byte, 8), make([]byte, 8), make([]byte, 8)}
			if p.Rank() == 1 {
				parts[2] = make([]byte, 16) // disagrees with everyone else
			}
			p.CommWorld().ReduceScatter(parts, SumInt64)
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "ReduceScatter size mismatch") {
			t.Fatalf("tuning %+v: err = %v, want ReduceScatter size mismatch", tuning, err)
		}
	}
}

// TestTunedCollectivesTCPMatchesInProcessTiming extends the key transport
// invariant to the new engine: a program exercising the ring allreduce,
// segmented broadcast, binomial gather/scatter, pairwise reduce-scatter
// and the AnySource gather drain must produce identical virtual times
// under the in-process and TCP transports.
func TestTunedCollectivesTCPMatchesInProcessTiming(t *testing.T) {
	tuning := &CollTuning{
		Allreduce:     AllreduceRing,
		ReduceScatter: ReduceScatterPairwise,
		Bcast:         BcastSegmented,
		Gather:        GatherBinomial,
		Scatter:       ScatterBinomial,
	}
	program := func(p *Proc) error {
		comm := p.CommWorld()
		p.Compute(float64(3 * (p.Rank() + 1)))
		comm.Allreduce(Int64Bytes(contribution(p.Rank(), 512)), SumInt64)
		var data []byte
		if p.Rank() == 2 {
			data = bytes.Repeat([]byte{0xC7}, 40000) // three 16 KiB segments
		}
		comm.Bcast(2, data)
		comm.Gather(1, bytes.Repeat([]byte{byte(p.Rank())}, 64))
		parts := make([][]byte, comm.Size())
		for i := range parts {
			parts[i] = Int64Bytes(contribution(p.Rank()+i, 4))
		}
		comm.ReduceScatter(parts, SumInt64)
		// Legacy flat gather exercises the AnySource drain.
		flat := &CollTuning{}
		comm.tuning = flat
		comm.Gather(0, bytes.Repeat([]byte{byte(p.Rank())}, 32))
		comm.tuning = tuning
		comm.Barrier()
		return nil
	}
	const n = 7
	c := testCluster(n)
	inproc := NewWorld(c, OneProcessPerMachine(c))
	inproc.SetCollTuning(tuning)
	if err := inproc.Run(program); err != nil {
		t.Fatal(err)
	}
	wire, closeT, err := newWorldTCPOpts(c, OneProcessPerMachine(c), tcpOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer closeT()
	wire.SetCollTuning(tuning)
	if err := wire.Run(program); err != nil {
		t.Fatal(err)
	}
	if inproc.Makespan() != wire.Makespan() {
		t.Fatalf("makespan: inproc %v, tcp %v", inproc.Makespan(), wire.Makespan())
	}
	for r := 0; r < n; r++ {
		if a, b := inproc.procs[r].clock.Now(), wire.procs[r].clock.Now(); a != b {
			t.Fatalf("rank %d clock: inproc %v, tcp %v", r, a, b)
		}
	}
}

// TestGatherAnySourceDrainKeepsLegacyTiming: the flat gather's AnySource
// drain must leave the simulated times exactly where a strict-rank-order
// drain leaves them (the timing fold is applied in rank order regardless of
// arrival order) — with the members entering staggered, so arrival order
// is the reverse of rank order — and the root's receives must be traced as
// the wildcard receives they are, all starting when the drain finished.
func TestGatherAnySourceDrainKeepsLegacyTiming(t *testing.T) {
	const n = 6
	run := func() (*World, *trace.Data, error) {
		c := testCluster(n)
		w := NewWorld(c, OneProcessPerMachine(c))
		rec := attachRecorder(w)
		err := w.Run(func(p *Proc) error {
			// Stagger entry so arrival order differs from rank order.
			p.Compute(float64((n - p.Rank()) * 10))
			p.CommWorld().Gather(0, bytes.Repeat([]byte{byte(p.Rank())}, 100*(p.Rank()+1)))
			return nil
		})
		return w, rec.Data(), err
	}
	w1, d1, err := run()
	if err != nil {
		t.Fatal(err)
	}
	w2, _, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if w1.Makespan() != w2.Makespan() {
		t.Fatalf("gather drain nondeterministic: %v vs %v", w1.Makespan(), w2.Makespan())
	}
	for r := 0; r < n; r++ {
		if a, b := w1.procs[r].clock.Now(), w2.procs[r].clock.Now(); a != b {
			t.Fatalf("rank %d clock differs across runs: %v vs %v", r, a, b)
		}
	}
	// Rank 5 arrives first, rank 1 last; the root still applies 1..5.
	var recvs []trace.Event
	for _, e := range d1.PerRank[0] {
		if e.Kind == trace.KindRecv {
			recvs = append(recvs, e)
		}
	}
	if len(recvs) != n-1 {
		t.Fatalf("root recorded %d receives, want %d", len(recvs), n-1)
	}
	for i, e := range recvs {
		if int(e.Peer) != i+1 || e.A1 != 1 || e.Start != recvs[0].Start {
			t.Errorf("receive %d = %+v: want peer %d, the any-source mark, start %v", i, e, i+1, recvs[0].Start)
		}
	}
}

// TestCollTuningInheritance: derived communicators carry their parent's
// policy; world-level tuning reaches CommWorld.
func TestCollTuningInheritance(t *testing.T) {
	tuning := &CollTuning{Allreduce: AllreduceRing}
	c := testCluster(4)
	w := NewWorld(c, OneProcessPerMachine(c))
	w.SetCollTuning(tuning)
	runWorld(t, w, func(p *Proc) error {
		comm := p.CommWorld()
		if comm.tuning != tuning {
			return fmt.Errorf("CommWorld did not inherit world tuning")
		}
		if dup := comm.Dup(); dup.tuning != tuning {
			return fmt.Errorf("Dup dropped tuning")
		}
		if sub := comm.Split(p.Rank()%2, 0); sub.tuning != tuning {
			return fmt.Errorf("Split dropped tuning")
		}
		if created := comm.Create(comm.Group()); created.tuning != tuning {
			return fmt.Errorf("Create dropped tuning")
		}
		return nil
	})
}

// TestCollTuningResolution: the pure selection functions respect their
// thresholds.
func TestCollTuningResolution(t *testing.T) {
	tun := &CollTuning{Allreduce: AllreduceAuto, Bcast: BcastAuto, Gather: GatherAuto, Scatter: ScatterAuto}
	if got := tun.resolveAllreduce(9, 64, flat{}); got != AllreduceRecursiveDoubling {
		t.Fatalf("small allreduce resolved to %v", got)
	}
	if got := tun.resolveAllreduce(9, 1<<20, flat{}); got != AllreduceRing {
		t.Fatalf("large allreduce resolved to %v", got)
	}
	if got := tun.resolveAllreduce(9, 1<<20|1, flat{}); got != AllreduceRecursiveDoubling {
		t.Fatalf("unaligned large allreduce resolved to %v, want recursive doubling fallback", got)
	}
	if got := tun.resolveBcast(1<<10, flat{}); got != BcastBinomial {
		t.Fatalf("small bcast resolved to %v", got)
	}
	if got := tun.resolveBcast(1<<20, flat{}); got != BcastBinomial {
		t.Fatalf("large bcast resolved to %v", got)
	}
	if got := tun.resolveGather(64, flat{}); got != GatherFlat {
		t.Fatalf("small gather resolved to %v", got)
	}
	if got := tun.resolveGather(1<<20, flat{}); got != GatherFlat {
		t.Fatalf("large gather resolved to %v", got)
	}
	if got := tun.resolveScatter(9, 64); got != ScatterBinomial {
		t.Fatalf("small scatter on 9 ranks resolved to %v", got)
	}
	if got := tun.resolveScatter(4, 64); got != ScatterFlat {
		t.Fatalf("small scatter on 4 ranks resolved to %v", got)
	}
	if got := tun.resolveScatter(9, 1<<20); got != ScatterFlat {
		t.Fatalf("large scatter resolved to %v", got)
	}
	legacy := &CollTuning{}
	if legacy.resolveAllreduce(9, 1<<20, flat{}) != AllreduceRedBcast || legacy.resolveBcast(1<<20, flat{}) != BcastBinomial ||
		legacy.resolveGather(64, flat{}) != GatherFlat || legacy.resolveScatter(9, 64) != ScatterFlat ||
		legacy.resolveReduceScatter(1<<20, flat{}) != ReduceScatterViaRoot {
		t.Fatal("zero tuning must resolve to the legacy algorithm everywhere")
	}
}
