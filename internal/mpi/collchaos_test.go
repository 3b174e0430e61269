package mpi

import (
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/vclock"
)

// Collectives under link faults: every tuned collective algorithm must
// produce bit-exact results when frames are dropped and retransmitted —
// the retry path sits below the collectives, so none of them may notice.
// Two fault shapes per algorithm and transport: a single dropped frame
// (the minimal fault) and first-attempt loss of every frame (the
// worst case the retry budget absorbs without escalating).

// singleDropFilter drops exactly the target-th frame adjudication
// (1-based) across all links. The counter makes it impure, but the
// retransmitted copy draws a fresh count and passes — which is the point:
// exactly one wire loss, wherever in the collective it lands.
func singleDropFilter(target int64) LinkFilter {
	var n atomic.Int64
	return func(src, dst int, at vclock.Time, seq int64, attempt int) LinkOutcome {
		return LinkOutcome{Drop: n.Add(1) == target}
	}
}

// runTunedChaos runs main on an n-process world with the given tuning and
// link filter (retransmission armed), on either transport.
func runTunedChaos(t *testing.T, n int, tcp bool, tuning *CollTuning, f LinkFilter, main func(p *Proc) error) {
	t.Helper()
	var w *World
	if tcp {
		c := testCluster(n)
		tw, closeT, err := NewWorldTCP(c, OneProcessPerMachine(c))
		if err != nil {
			t.Fatal(err)
		}
		defer closeT()
		w = tw
	} else {
		w = newTestWorld(t, n)
	}
	w.SetCollTuning(tuning)
	w.SetLinkFilter(f)
	if err := w.Run(main); err != nil {
		t.Fatal(err)
	}
}

// faultShapes enumerates the filters each algorithm is exercised under.
func faultShapes() map[string]func() LinkFilter {
	return map[string]func() LinkFilter{
		"drop1":   func() LinkFilter { return singleDropFilter(1) },
		"drop7":   func() LinkFilter { return singleDropFilter(7) },
		"dropall": func() LinkFilter { return dropFirstAttempt },
	}
}

func TestAllreduceUnderFrameDrop(t *testing.T) {
	const n, elems = 5, 20 // elems divisible by n: AllreduceRing-compatible
	want := make([]int64, elems)
	for r := 0; r < n; r++ {
		for i, v := range contribution(r, elems) {
			want[i] += v
		}
	}
	algs := []struct {
		name string
		alg  AllreduceAlg
	}{
		{"redbcast", AllreduceRedBcast},
		{"recdouble", AllreduceRecursiveDoubling},
		{"ring", AllreduceRing},
		{"auto", AllreduceAuto},
	}
	for _, a := range algs {
		for _, tcp := range []bool{false, true} {
			for shape, mk := range faultShapes() {
				t.Run(fmt.Sprintf("%s/%s/%s", a.name, transports(tcp), shape), func(t *testing.T) {
					runTunedChaos(t, n, tcp, &CollTuning{Allreduce: a.alg}, mk(), func(p *Proc) error {
						got := BytesInt64(p.CommWorld().Allreduce(Int64Bytes(contribution(p.Rank(), elems)), SumInt64))
						for i := range got {
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

func TestReduceScatterUnderFrameDrop(t *testing.T) {
	const n, elems = 5, 4
	want := make([][]int64, n)
	for dst := 0; dst < n; dst++ {
		want[dst] = make([]int64, elems)
		for src := 0; src < n; src++ {
			for i, v := range contribution(src*10+dst, elems) {
				want[dst][i] += v
			}
		}
	}
	algs := []struct {
		name string
		alg  ReduceScatterAlg
	}{
		{"viaroot", ReduceScatterViaRoot},
		{"pairwise", ReduceScatterPairwise},
	}
	for _, a := range algs {
		for _, tcp := range []bool{false, true} {
			for shape, mk := range faultShapes() {
				t.Run(fmt.Sprintf("%s/%s/%s", a.name, transports(tcp), shape), func(t *testing.T) {
					runTunedChaos(t, n, tcp, &CollTuning{ReduceScatter: a.alg}, mk(), func(p *Proc) error {
						parts := make([][]byte, n)
						for dst := 0; dst < n; dst++ {
							parts[dst] = Int64Bytes(contribution(p.Rank()*10+dst, elems))
						}
						got := BytesInt64(p.CommWorld().ReduceScatter(parts, SumInt64))
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
}

func TestBcastUnderFrameDrop(t *testing.T) {
	const n, root, size = 5, 2, 4096 // big enough that segmented really segments
	payload := make([]byte, size)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	algs := []struct {
		name string
		alg  BcastAlg
	}{
		{"binomial", BcastBinomial},
		{"segmented", BcastSegmented},
		{"auto", BcastAuto},
	}
	for _, a := range algs {
		for _, tcp := range []bool{false, true} {
			for shape, mk := range faultShapes() {
				t.Run(fmt.Sprintf("%s/%s/%s", a.name, transports(tcp), shape), func(t *testing.T) {
					runTunedChaos(t, n, tcp, &CollTuning{Bcast: a.alg}, mk(), func(p *Proc) error {
						var data []byte
						if p.Rank() == root {
							data = payload
						}
						got := p.CommWorld().Bcast(root, data)
						if len(got) != size {
							return fmt.Errorf("rank %d: got %d bytes", p.Rank(), len(got))
						}
						for i := range got {
							if got[i] != payload[i] {
								return fmt.Errorf("rank %d byte %d corrupted", p.Rank(), i)
							}
						}
						return nil
					})
				})
			}
		}
	}
}

func TestGatherScatterUnderFrameDrop(t *testing.T) {
	const n, root, elems = 5, 1, 6
	gaAlgs := []struct {
		name    string
		gather  GatherAlg
		scatter ScatterAlg
	}{
		{"flat", GatherFlat, ScatterFlat},
		{"binomial", GatherBinomial, ScatterBinomial},
	}
	for _, a := range gaAlgs {
		for _, tcp := range []bool{false, true} {
			for shape, mk := range faultShapes() {
				t.Run(fmt.Sprintf("%s/%s/%s", a.name, transports(tcp), shape), func(t *testing.T) {
					tuning := &CollTuning{Gather: a.gather, Scatter: a.scatter}
					runTunedChaos(t, n, tcp, tuning, mk(), func(p *Proc) error {
						comm := p.CommWorld()
						all := comm.Gather(root, Int64Bytes(contribution(p.Rank(), elems)))
						if p.Rank() == root {
							for r := 0; r < n; r++ {
								got := BytesInt64(all[r])
								for i, v := range contribution(r, elems) {
									if got[i] != v {
										return fmt.Errorf("gather: rank %d elem %d: got %d, want %d", r, i, got[i], v)
									}
								}
							}
						}
						var parts [][]byte
						if p.Rank() == root {
							parts = make([][]byte, n)
							for r := 0; r < n; r++ {
								parts[r] = Int64Bytes(contribution(100+r, elems))
							}
						}
						mine := BytesInt64(comm.Scatter(root, parts))
						for i, v := range contribution(100+p.Rank(), elems) {
							if mine[i] != v {
								return fmt.Errorf("scatter: rank %d elem %d: got %d, want %d", p.Rank(), i, mine[i], v)
							}
						}
						return nil
					})
				})
			}
		}
	}
}

// TestBarrierUnderFrameDrop: the barrier's control frames ride the same
// retransmit path.
func TestBarrierUnderFrameDrop(t *testing.T) {
	for _, tcp := range []bool{false, true} {
		for shape, mk := range faultShapes() {
			t.Run(fmt.Sprintf("%s/%s", transports(tcp), shape), func(t *testing.T) {
				runTunedChaos(t, 5, tcp, nil, mk(), func(p *Proc) error {
					for i := 0; i < 3; i++ {
						p.CommWorld().Barrier()
					}
					return nil
				})
			})
		}
	}
}
