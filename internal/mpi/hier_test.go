package mpi

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/hnoc"
	"repro/internal/vclock"
)

// fatTestCluster is a small fat-node topology for the hierarchy tests:
// three machines holding 3, 2 and 3 processes with distinct internal
// buses, joined by the slow test LAN. Small enough for the TCP transport
// matrix.
func fatTestCluster() (*hnoc.Cluster, []int) {
	return hnoc.FatNodes(
		[]float64{10, 20, 30},
		[]int{3, 2, 3},
		[]hnoc.LinkSpec{
			{Protocol: hnoc.ProtoSHM, Latency: 1e-6, Bandwidth: 200e6, Overhead: 1e-6},
			{Protocol: hnoc.ProtoSHM, Latency: 2e-6, Bandwidth: 100e6, Overhead: 1e-6},
			{Protocol: hnoc.ProtoSHM, Latency: 2e-6, Bandwidth: 150e6, Overhead: 1e-6},
		},
		hnoc.LinkSpec{Protocol: hnoc.ProtoTCP, Latency: 1e-3, Bandwidth: 1e6},
	)
}

// runPlaced runs main on a world with an explicit placement (co-located
// processes), under either transport.
func runPlaced(t *testing.T, cl *hnoc.Cluster, place []int, tcp bool, tuning *CollTuning, main func(p *Proc) error) {
	t.Helper()
	if err := cl.Validate(); err != nil {
		t.Fatal(err)
	}
	if tcp {
		w, closeT, err := newWorldTCPOpts(cl, place, tcpOptions{})
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
	w := NewWorld(cl, place)
	w.SetCollTuning(tuning)
	if err := w.Run(main); err != nil {
		t.Fatal(err)
	}
}

// TestHierTierStructure pins the derived hierarchy on the benchmark
// topology: 3 machines x 8 processes, leaders at ranks 0/8/16, node tiers
// in rank order, net tier only on leaders.
func TestHierTierStructure(t *testing.T) {
	cl, place := hnoc.FatNode3x8()
	runPlaced(t, cl, place, false, nil, func(p *Proc) error {
		c := p.CommWorld()
		leaders := c.hier().leaders
		if fmt.Sprint(leaders) != "[0 8 16]" {
			return fmt.Errorf("rank %d: leaders %v, want [0 8 16]", p.Rank(), leaders)
		}
		node := c.hier().node
		if node.Size() != 8 {
			return fmt.Errorf("rank %d: node size %d, want 8", p.Rank(), node.Size())
		}
		wantLeader := (p.Rank() / 8) * 8
		if got := leaders[c.hier().groupOf[c.rank]]; got != wantLeader {
			return fmt.Errorf("rank %d: leader %d, want %d", p.Rank(), got, wantLeader)
		}
		if got := node.s.members[node.Rank()]; got != p.Rank() {
			return fmt.Errorf("rank %d: node tier maps back to world rank %d", p.Rank(), got)
		}
		if node.Rank() != p.Rank()%8 {
			return fmt.Errorf("rank %d: node rank %d, want %d", p.Rank(), node.Rank(), p.Rank()%8)
		}
		net := c.hier().net
		if p.Rank() == wantLeader {
			if net == nil || net.Size() != 3 || net.Rank() != p.Rank()/8 {
				return fmt.Errorf("rank %d: bad net tier %v", p.Rank(), net)
			}
		} else if net != nil {
			return fmt.Errorf("rank %d: non-leader has a net tier", p.Rank())
		}
		// The node tier spans one machine, so it is never hier-viable and
		// the tier recursion terminates.
		if node.hierViable() {
			return fmt.Errorf("rank %d: node tier claims hier viability", p.Rank())
		}
		return nil
	})
}

// TestHierAllreduceMatchesFlat: the hierarchical Allreduce produces the
// serial fold bit-exactly on a fat-node topology, on both transports,
// including the empty and single-element edges.
func TestHierAllreduceMatchesFlat(t *testing.T) {
	cl, place := fatTestCluster()
	n := len(place)
	for _, tcp := range []bool{false, true} {
		for _, elems := range []int{0, 1, 3, 1024} {
			t.Run(fmt.Sprintf("%s/e%d", transports(tcp), elems), func(t *testing.T) {
				want := make([]int64, elems)
				for r := 0; r < n; r++ {
					for i, v := range contribution(r, elems) {
						want[i] += v
					}
				}
				runPlaced(t, cl, place, tcp, &CollTuning{Allreduce: AllreduceHier}, func(p *Proc) error {
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

// TestHierBcastMatchesFlat: the hierarchical broadcast delivers the
// root's bytes exactly for leader, non-leader and last-machine roots, on
// both transports.
func TestHierBcastMatchesFlat(t *testing.T) {
	cl, place := fatTestCluster()
	for _, tcp := range []bool{false, true} {
		for _, root := range []int{0, 4, 7} {
			for _, size := range []int{0, 1, 777} {
				t.Run(fmt.Sprintf("%s/root%d/s%d", transports(tcp), root, size), func(t *testing.T) {
					want := make([]byte, size)
					for i := range want {
						want[i] = byte(i*13 + 7)
					}
					runPlaced(t, cl, place, tcp, &CollTuning{Bcast: BcastHier}, func(p *Proc) error {
						var data []byte
						if p.Rank() == root {
							data = append([]byte(nil), want...)
						}
						got := p.CommWorld().Bcast(root, data)
						if !bytes.Equal(got, want) {
							return fmt.Errorf("rank %d: got %d bytes, want %d", p.Rank(), len(got), len(want))
						}
						return nil
					})
				})
			}
		}
	}
}

// TestHierGatherMatchesFlat: the hierarchical gather returns exactly the
// flat gather's rank-indexed result, with irregular per-member sizes
// (including empty contributions) and non-leader roots, on both
// transports.
func TestHierGatherMatchesFlat(t *testing.T) {
	cl, place := fatTestCluster()
	n := len(place)
	payload := func(rank int) []byte {
		out := make([]byte, (rank*3)%5)
		for i := range out {
			out[i] = byte(rank*31 + i)
		}
		return out
	}
	for _, tcp := range []bool{false, true} {
		for _, root := range []int{0, 4, 7} {
			t.Run(fmt.Sprintf("%s/root%d", transports(tcp), root), func(t *testing.T) {
				runPlaced(t, cl, place, tcp, &CollTuning{Gather: GatherHier}, func(p *Proc) error {
					got := p.CommWorld().Gather(root, payload(p.Rank()))
					if p.Rank() != root {
						if got != nil {
							return fmt.Errorf("rank %d: non-root got %v", p.Rank(), got)
						}
						return nil
					}
					if len(got) != n {
						return fmt.Errorf("root got %d entries, want %d", len(got), n)
					}
					for r := 0; r < n; r++ {
						if !bytes.Equal(got[r], payload(r)) {
							return fmt.Errorf("entry %d: got %v, want %v", r, got[r], payload(r))
						}
					}
					return nil
				})
			})
		}
	}
}

// TestHierReduceScatterMatchesFlat: the hierarchical reduce-scatter
// returns each member's reduced block exactly, with irregular
// per-destination sizes, on both transports.
func TestHierReduceScatterMatchesFlat(t *testing.T) {
	cl, place := fatTestCluster()
	n := len(place)
	elemsFor := func(dst int) int { return dst%3 + 1 }
	partFor := func(rank, dst int) []int64 {
		out := make([]int64, elemsFor(dst))
		for i := range out {
			out[i] = int64(rank*1009 + dst*97 + i)
		}
		return out
	}
	for _, tcp := range []bool{false, true} {
		t.Run(transports(tcp), func(t *testing.T) {
			runPlaced(t, cl, place, tcp, &CollTuning{ReduceScatter: ReduceScatterHier}, func(p *Proc) error {
				parts := make([][]byte, n)
				for d := 0; d < n; d++ {
					parts[d] = Int64Bytes(partFor(p.Rank(), d))
				}
				got := BytesInt64(p.CommWorld().ReduceScatter(parts, SumInt64))
				want := make([]int64, elemsFor(p.Rank()))
				for r := 0; r < n; r++ {
					for i, v := range partFor(r, p.Rank()) {
						want[i] += v
					}
				}
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

// TestHierFailureEndsRun: a member dying inside a two-level collective
// ends World.Run with its failure. The machine leader it shares a tier
// with leaves with the error, and the other leaders' node-tier members,
// still waiting on theirs, must see the failure through the communicator
// the collective was called on — the node tier does not hold the victim.
func TestHierFailureEndsRun(t *testing.T) {
	const victim = 8 // machine 1's leader
	for _, k := range []struct {
		name   string
		tuning *CollTuning
		call   func(c *Comm, data []byte)
	}{
		{"allreduce", &CollTuning{Allreduce: AllreduceHier}, func(c *Comm, d []byte) { c.Allreduce(d, SumFloat64) }},
		{"bcast", &CollTuning{Bcast: BcastHier}, func(c *Comm, d []byte) { c.Bcast(0, d) }},
		{"gather", &CollTuning{Gather: GatherHier}, func(c *Comm, d []byte) { c.Gather(0, d) }},
		{"reducescatter", &CollTuning{ReduceScatter: ReduceScatterHier}, func(c *Comm, d []byte) {
			parts := make([][]byte, c.Size())
			for i := range parts {
				parts[i] = d[:len(d)/c.Size()/8*8]
			}
			c.ReduceScatter(parts, SumFloat64)
		}},
	} {
		t.Run(k.name, func(t *testing.T) {
			cl, place := hnoc.FatNode3x8()
			w := NewWorld(cl, place)
			w.SetCollTuning(k.tuning)
			w.SetFaultHook(func(rank int, now vclock.Time) {
				if rank == victim && now > 0 {
					w.Fail(rank)
					panic(&KilledError{Rank: rank})
				}
			})
			err := runWithTimeout(t, w, 5*time.Second, func(p *Proc) error {
				k.call(p.CommWorld(), make([]byte, 64<<10))
				return nil
			})
			var pf *ProcessFailedError
			if !errors.As(err, &pf) || pf.Rank != victim {
				t.Fatalf("Run returned %v, want rank %d's failure", err, victim)
			}
		})
	}
}

// TestHierAutoSelection pins the Auto dispatch on a two-level
// communicator: the hierarchy for the large Allreduce and ReduceScatter,
// the flat fan for the large gather, the binomial tree for every blocked
// broadcast; tier communicators and explicit-Hier fallbacks resolve flat;
// derived communicators inherit the policy.
func TestHierAutoSelection(t *testing.T) {
	cl, place := hnoc.FatNode3x8()
	runPlaced(t, cl, place, false, AutoCollTuning(), func(p *Proc) error {
		c := p.CommWorld()
		checks := []struct {
			name string
			got  any
			want any
		}{
			{"allreduce/large", onPlan(c, func(x *plan) any { return AllreduceAlg(x.resolve(x.self(), "allreduce", 1<<20, 0)) }), AllreduceHier},
			{"bcast/large", onPlan(c, func(x *plan) any { return BcastAlg(x.resolve(x.self(), "bcast", 1<<20, 0)) }), BcastBinomial},
			{"bcast/header", onPlan(c, func(x *plan) any { return x.bcastSized(x.self(), 0) }), false},
			{"gather/large", onPlan(c, func(x *plan) any { return GatherAlg(x.resolve(x.self(), "gather", 1<<20, 0)) }), GatherFlat},
			{"reducescatter/large", onPlan(c, func(x *plan) any { return ReduceScatterAlg(x.resolve(x.self(), "reducescatter", 1<<16, 0)) }), ReduceScatterHier},
			// Tier communicators are single-machine / one-rank-per-machine:
			// never hier, so the recursion bottoms out in flat algorithms.
			{"node/large", onPlan(c, func(x *plan) any { return AllreduceAlg(x.resolve(x.machines().node(c.rank), "allreduce", 1<<20, 0)) }), AllreduceRing},
			// Derived communicators inherit the policy and recompute tiers.
			{"dup/large", onPlan(c.Dup(), func(x *plan) any { return AllreduceAlg(x.resolve(x.self(), "allreduce", 1<<20, 0)) }), AllreduceHier},
		}
		for _, ck := range checks {
			if ck.got != ck.want {
				return fmt.Errorf("rank %d: %s resolved %v, want %v", p.Rank(), ck.name, ck.got, ck.want)
			}
		}
		// An explicitly hierarchical policy falls back to the Auto
		// resolution on a communicator without a two-level structure.
		d := c.Dup()
		d.tuning = &CollTuning{Allreduce: AllreduceHier}
		if alg := onPlan(d, func(x *plan) any { return AllreduceAlg(x.resolve(x.machines().node(d.rank), "allreduce", 64, 0)) }); alg != AllreduceRecursiveDoubling {
			return fmt.Errorf("rank %d: explicit hier on node tier resolved %v", p.Rank(), alg)
		}
		if alg := onPlan(d, func(x *plan) any { return AllreduceAlg(x.resolve(x.self(), "allreduce", 64, 0)) }); alg != AllreduceHier {
			return fmt.Errorf("rank %d: explicit hier on world resolved %v", p.Rank(), alg)
		}
		return nil
	})
}

// onPlan runs f on the plan a collective on c starts with.
func onPlan(c *Comm, f func(x *plan) any) any {
	x := c.newRun("probe", 0)
	defer x.release()
	return f(&x.plan)
}

// catchPanic runs f and returns the panic message, or "" if f returned
// normally.
func catchPanic(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg = fmt.Sprint(r)
		}
	}()
	f()
	return ""
}

// TestHierRecomputeAfterShrink is the satellite property test: after
// Shrink removes a machine's last rank (or a leader), the shrunk
// communicator and everything derived from it recompute their node/net
// tiers from their own member lists instead of stale-sharing the
// parent's cache.
func TestHierRecomputeAfterShrink(t *testing.T) {
	cases := []struct {
		counts []int
		fail   int // world rank to fail
	}{
		{[]int{2, 1, 2}, 2}, // machine 1's only rank disappears
		{[]int{3, 1, 1}, 3},
		{[]int{2, 2, 1}, 4},
		{[]int{2, 2, 0}, 0}, // a leader disappears; machine 0's tier re-elects
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("counts%v/fail%d", tc.counts, tc.fail), func(t *testing.T) {
			cl, place := hnoc.FatNodes(
				[]float64{10, 20, 30},
				tc.counts,
				make([]hnoc.LinkSpec, 3),
				hnoc.LinkSpec{Protocol: hnoc.ProtoTCP, Latency: 1e-3, Bandwidth: 1e6},
			)
			if err := cl.Validate(); err != nil {
				t.Fatal(err)
			}
			// Expected tier structure of the survivor set, computed from
			// the placement alone (the property the derivation must hold).
			expectGroups := func(members []int) [][]int {
				byMachine := map[int]int{}
				var groups [][]int
				for i, wr := range members {
					m := place[wr]
					g, ok := byMachine[m]
					if !ok {
						g = len(groups)
						byMachine[m] = g
						groups = append(groups, nil)
					}
					groups[g] = append(groups[g], i)
				}
				return groups
			}
			w := NewWorld(cl, place)
			w.Fail(tc.fail)
			err := runWithTimeout(t, w, 10*time.Second, func(p *Proc) error {
				if p.Rank() == tc.fail {
					return nil
				}
				comm := p.CommWorld()
				staleLeaders := fmt.Sprint(comm.hier().leaders) // cache the full-world hierarchy
				sc := comm.Shrink()
				members := make([]int, sc.Size())
				for i := range members {
					members[i] = sc.s.members[i]
				}
				want := expectGroups(members)
				wantLeaders := make([]int, len(want))
				for g, grp := range want {
					wantLeaders[g] = grp[0]
				}
				for name, d := range map[string]*Comm{
					"shrunk": sc,
					"dup":    sc.Dup(),
					"split":  sc.Split(0, sc.Rank()),
				} {
					if got := fmt.Sprint(d.hier().leaders); got != fmt.Sprint(wantLeaders) {
						return fmt.Errorf("rank %d: %s leaders %s, want %v", p.Rank(), name, got, wantLeaders)
					}
					myG := -1
					for g, grp := range want {
						for _, r := range grp {
							if r == d.Rank() {
								myG = g
							}
						}
					}
					if got := d.hier().node.Size(); got != len(want[myG]) {
						return fmt.Errorf("rank %d: %s node size %d, want %d", p.Rank(), name, got, len(want[myG]))
					}
					isLeader := want[myG][0] == d.Rank()
					if (d.hier().net != nil) != isLeader {
						return fmt.Errorf("rank %d: %s net tier presence %v, leader %v", p.Rank(), name, d.hier().net != nil, isLeader)
					}
				}
				// The parent's own cache is its pre-shrink structure — the
				// derived communicators must not have mutated it.
				if got := fmt.Sprint(comm.hier().leaders); got != staleLeaders {
					return fmt.Errorf("rank %d: parent cache mutated: %s -> %s", p.Rank(), staleLeaders, got)
				}
				// A freed communicator refuses to derive a hierarchy.
				f := sc.Dup()
				f.Free()
				if msg := catchPanic(func() { f.hier() }); !strings.Contains(msg, "freed") {
					return fmt.Errorf("rank %d: freed comm derived a hierarchy (%q)", p.Rank(), msg)
				}
				sc.Barrier()
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}
