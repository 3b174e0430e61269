package mpi

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"repro/internal/hnoc"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// autoShape is a communicator Auto runs on: a world, or the part of it
// that a Split keeps (color 0; the rest of the world only takes part in
// the Split, which is untuned and so costs every policy the same).
type autoShape struct {
	name    string
	cluster *hnoc.Cluster
	place   []int
	color   func(rank int) int // nil: the world itself
}

func autoShapes() []autoShape {
	paper := hnoc.Paper9()
	fat, blocked := hnoc.FatNode3x8()
	fatI, _ := hnoc.FatNode3x8()
	fatS, _ := hnoc.FatNode3x8()
	interleaved := make([]int, len(blocked))
	for i := range interleaved {
		interleaved[i] = i % 3
	}
	split := func(rank int) int { // machine 0 and half of machine 1
		if rank < 12 {
			return 0
		}
		return Undefined
	}
	return []autoShape{
		{"paper9/n3", paper, []int{0, 1, 2}, nil},
		{"paper9/n9", paper, OneProcessPerMachine(paper), nil},
		{"fat3x8/blocked", fat, blocked, nil},
		{"fat3x8/interleaved", fatI, interleaved, nil},
		{"fat3x8/blocked/split", fatS, blocked, split},
	}
}

// autoRun runs one coll of nbytes (per part for reducescatter) rooted at
// rank 0 on the shape's communicator under tuning and returns the world's
// makespan and message count.
func autoRun(t *testing.T, s autoShape, tuning *CollTuning, coll string, nbytes int) (vclock.Time, int64) {
	t.Helper()
	w := NewWorld(s.cluster, s.place)
	w.SetCollTuning(tuning)
	err := w.Run(func(p *Proc) error {
		c := p.CommWorld()
		if s.color != nil {
			if c = c.Split(s.color(p.Rank()), p.Rank()); c == nil {
				return nil
			}
		}
		switch coll {
		case "allreduce":
			c.Allreduce(make([]byte, nbytes), SumFloat64)
		case "reducescatter":
			parts := make([][]byte, c.Size())
			for i := range parts {
				parts[i] = make([]byte, nbytes)
			}
			c.ReduceScatter(parts, SumFloat64)
		case "gather":
			c.Gather(0, make([]byte, nbytes))
		case "bcast":
			var data []byte
			if c.Rank() == 0 {
				data = make([]byte, nbytes)
			}
			c.Bcast(0, data)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("%s %s at %d bytes: %v", s.name, coll, nbytes, err)
	}
	var msgs int64
	for _, st := range w.Stats() {
		msgs += st.MsgsSent
	}
	return w.Makespan(), msgs
}

// forcedAuto is AutoCollTuning with one selector forced, so the nested
// phases of the forced run resolve as Auto's own run of it does.
func forcedAuto(set func(t *CollTuning)) *CollTuning {
	t := AutoCollTuning()
	set(t)
	return t
}

// TestAutoMatchesSimulation: on every communicator shape — one level,
// two levels blocked and interleaved, a Split spanning two machines — the
// live makespan of an Auto Allreduce, ReduceScatter and Gather equals the
// smallest live makespan of the algorithms Auto can pick, each forced in
// turn; an Auto broadcast is the binomial tree where the hierarchy never
// wins (blocked) and no slower than forced hier where it does
// (interleaved). -short keeps the payloads up to 1 000 B.
func TestAutoMatchesSimulation(t *testing.T) {
	candidates := map[string][]*CollTuning{
		"allreduce": {
			forcedAuto(func(t *CollTuning) { t.Allreduce = AllreduceRecursiveDoubling }),
			forcedAuto(func(t *CollTuning) { t.Allreduce = AllreduceRing }),
			forcedAuto(func(t *CollTuning) { t.Allreduce = AllreduceHier }),
		},
		"reducescatter": {
			forcedAuto(func(t *CollTuning) { t.ReduceScatter = ReduceScatterPairwise }),
			forcedAuto(func(t *CollTuning) { t.ReduceScatter = ReduceScatterHier }),
		},
		"gather": {
			forcedAuto(func(t *CollTuning) { t.Gather = GatherFlat }),
			forcedAuto(func(t *CollTuning) { t.Gather = GatherHier }),
		},
	}
	binomial := forcedAuto(func(t *CollTuning) { t.Bcast = BcastBinomial })
	hier := forcedAuto(func(t *CollTuning) { t.Bcast = BcastHier })
	makespan := func(s autoShape, tuning *CollTuning, coll string, size int) vclock.Time {
		d, _ := autoRun(t, s, tuning, coll, size)
		return d
	}
	for _, s := range autoShapes() {
		for _, size := range []int{8, 1000, 16 << 10, 64 << 10, 1 << 20} {
			if testing.Short() && size > 1000 {
				continue
			}
			for _, coll := range []string{"allreduce", "reducescatter", "gather"} {
				if coll == "reducescatter" && len(s.place) > 9 && size > 64<<10 {
					continue // n parts per rank: n² MiB live buys nothing
				}
				auto := makespan(s, AutoCollTuning(), coll, size)
				best := vclock.Time(-1)
				for _, c := range candidates[coll] {
					if d := makespan(s, c, coll, size); best < 0 || d < best {
						best = d
					}
				}
				if auto != best {
					t.Errorf("%s %s at %d bytes: Auto %v, the cheapest forced algorithm %v", s.name, coll, size, auto, best)
				}
			}
			switch s.name {
			case "fat3x8/blocked":
				if auto, b := makespan(s, AutoCollTuning(), "bcast", size), makespan(s, binomial, "bcast", size); auto != b {
					t.Errorf("%s bcast at %d bytes: Auto %v, forced binomial %v", s.name, size, auto, b)
				}
			case "fat3x8/interleaved":
				if auto, h := makespan(s, AutoCollTuning(), "bcast", size), makespan(s, hier, "bcast", size); auto > h {
					t.Errorf("%s bcast at %d bytes: Auto %v, forced hier %v", s.name, size, auto, h)
				}
			}
		}
	}
}

// TestBcastSendsAHeaderOnlyWhenNeeded: a broadcast whose members all
// resolve the binomial tree without the payload length sends the payload
// and nothing else — n-1 messages — under Auto on Paper9 (one level) and
// on FatNode3x8 blocked (the hierarchy wins at no size there); on the
// interleaved placement, where it does, and under a forced segmented
// broadcast, the header goes first, one more message per tree edge.
func TestBcastSendsAHeaderOnlyWhenNeeded(t *testing.T) {
	shapes := autoShapes()
	for _, s := range []autoShape{shapes[1], shapes[2]} {
		for _, nbytes := range []int{8, 1 << 10, 32 << 10, 512 << 10} {
			if _, got := autoRun(t, s, AutoCollTuning(), "bcast", nbytes); got != int64(len(s.place)-1) {
				t.Errorf("%s, %d bytes: %d messages, want %d", s.name, nbytes, got, len(s.place)-1)
			}
		}
	}
	if _, got := autoRun(t, shapes[3], AutoCollTuning(), "bcast", 8); got <= 23 {
		t.Errorf("%s, 8 bytes: %d messages, want a header ahead of the 23 payload messages", shapes[3].name, got)
	}
	if _, got := autoRun(t, shapes[1], &CollTuning{Bcast: BcastSegmented}, "bcast", 1<<10); got != 2*8 {
		t.Errorf("forced segmented, one segment: %d messages, want 16 (header and segment per edge)", got)
	}
}

// TestAutoConcurrentAgreement: 24 ranks issue Auto collectives at mixed
// sizes on the world, on its node and net tiers and on both halves of a
// Split, all at once on a fresh world, so members of one communicator
// race each other to the memo entries of its first calls. Every member of
// every communicator must run the same algorithm for every call — the
// traced algorithm sequences per context are identical — and every result
// must be right.
func TestAutoConcurrentAgreement(t *testing.T) {
	cl, place := hnoc.FatNode3x8()
	w := NewWorld(cl, place)
	w.SetCollTuning(AutoCollTuning())
	rec := trace.NewRecorder(len(place), trace.Options{ShardCap: 4096})
	w.SetRecorder(rec)
	sizes := []int{8, 1000, 4 << 10, 16 << 10}
	fill := func(n, v int) []byte {
		b := make([]byte, n)
		for i := 0; i+8 <= n; i += 8 {
			binary.LittleEndian.PutUint64(b[i:], uint64(v))
		}
		return b
	}
	// sumCheck: every element of got is the sum of (world rank + 1) over
	// the communicator's members.
	sumCheck := func(what string, c *Comm, got []byte, n int) error {
		want := 0
		for _, r := range c.Group().Ranks() {
			want += r + 1
		}
		if !slices.Equal(got, fill(n, want)) {
			return fmt.Errorf("%s of %d bytes on %d members: wrong sum", what, n, c.Size())
		}
		return nil
	}
	err := w.Run(func(p *Proc) error {
		world := p.CommWorld()
		h := world.hier()
		half := world.Split(p.Rank()/12, p.Rank())
		me := p.Rank() + 1
		for i := range sizes {
			n := sizes[i]
			if err := sumCheck("world allreduce", world, world.Allreduce(fill(n, me), SumInt64), n); err != nil {
				return err
			}
			n = sizes[(i+1)%len(sizes)]
			if err := sumCheck("node allreduce", h.node, h.node.Allreduce(fill(n, me), SumInt64), n); err != nil {
				return err
			}
			if h.net != nil {
				n = sizes[(i+2)%len(sizes)]
				if err := sumCheck("net allreduce", h.net, h.net.Allreduce(fill(n, me), SumInt64), n); err != nil {
					return err
				}
			}
			n = sizes[(i+3)%len(sizes)]
			parts := make([][]byte, half.Size())
			for j := range parts {
				parts[j] = fill(n, me)
			}
			if err := sumCheck("split reducescatter", half, half.ReduceScatter(parts, SumInt64), n); err != nil {
				return err
			}
			root := i % half.Size()
			got := half.Gather(root, fill(n, me))
			for r, b := range got {
				if !slices.Equal(b, fill(n, half.Group().WorldRank(r)+1)) {
					return fmt.Errorf("split gather of %d bytes: wrong part from rank %d", n, r)
				}
			}
			n = sizes[i]
			var data []byte
			if world.Rank() == root {
				data = fill(n, 7)
			}
			if got := world.Bcast(root, data); !slices.Equal(got, fill(n, 7)) {
				return fmt.Errorf("world bcast of %d bytes from %d: wrong payload", n, root)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	type call struct {
		name string
		alg  int64
	}
	byCtx := map[int64]map[int][]call{} // context -> world rank -> its calls in order
	for r, evs := range rec.Data().PerRank {
		for _, e := range evs {
			if e.Kind == trace.KindColl {
				if byCtx[e.Ctx] == nil {
					byCtx[e.Ctx] = map[int][]call{}
				}
				byCtx[e.Ctx][r] = append(byCtx[e.Ctx][r], call{e.Name, e.A0})
			}
		}
	}
	if len(byCtx) < 6 { // the world, three node tiers, the net tier, two halves (and their tiers)
		t.Fatalf("collectives traced on %d contexts, want at least 6", len(byCtx))
	}
	for ctx, ranks := range byCtx {
		var first []call
		for _, calls := range ranks {
			if first == nil {
				first = calls
			} else if !slices.Equal(calls, first) {
				t.Fatalf("context %d: members ran %v and %v", ctx, first, calls)
			}
		}
	}
}
