package mpi

import (
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/hnoc"
)

// TestReplayMatchesGolden: the sequential replay of every case of the
// golden matrix ends with every rank's clock bit-identical to what the
// running World recorded — so a price the estimator reads off the replay
// is the simulated time of the real collective, not an approximation of
// it. The whole matrix replays in well under a second.
func TestReplayMatchesGolden(t *testing.T) {
	want := readGolden(t)
	start := time.Now()
	cases := 0
	for _, cfg := range goldenConfigs() {
		for _, k := range goldenCases(len(cfg.place)) {
			clocks, err := replayClocks(cfg.cluster.Link, cfg.place, CollCall{Coll: k.coll, Bytes: k.size, Root: k.root, Tuning: k.tuning})
			if err != nil {
				t.Fatalf("%s: %v", k.key(cfg.name), err)
			}
			exp := goldenClocks(want[k.key(cfg.name)])
			if len(exp) != len(clocks) {
				t.Fatalf("%s: golden line has %d clocks, want %d", k.key(cfg.name), len(exp), len(clocks))
			}
			for r := range clocks {
				if clocks[r] != exp[r] {
					t.Errorf("%s: rank %d replays to %v, the World ran to %v", k.key(cfg.name), r, clocks[r], exp[r])
					break
				}
			}
			cases++
		}
	}
	t.Logf("replayed %d cases in %v", cases, time.Since(start))
}

// TestSchedulesSoundByEnumeration proves every builder by enumeration:
// for n = 1..33 ranks on distinct machines and for both 24-rank fat-node
// placements, every collective x policy x root x a spread of sizes, the
// per-rank lists fit together — each receive finds a send of equal size
// at the head of its pair's FIFO, every send is received, and no rank
// waits forever (Replay reports any of these as an error). All of a
// schedule's traffic is matched on one FIFO per pair, which is the
// discipline the nonblocking executor needs (one tag per posted
// collective) and is stricter than the blocking one (a tag per phase).
func TestSchedulesSoundByEnumeration(t *testing.T) {
	type world struct {
		name    string
		cluster *hnoc.Cluster
		place   []int
	}
	var worlds []world
	for n := 1; n <= 33; n++ {
		c := testCluster(n)
		worlds = append(worlds, world{fmt.Sprintf("flat/n%d", n), c, OneProcessPerMachine(c)})
	}
	for _, cfg := range goldenConfigs()[9:] {
		worlds = append(worlds, world{cfg.name, cfg.cluster, cfg.place})
	}
	sizes := []int{0, 8, 1000, 96 << 10}
	calls := 0
	for _, w := range worlds {
		n := len(w.place)
		for _, coll := range goldenColls {
			rooted := coll == "bcast" || coll == "reduce" || coll == "gather" || coll == "scatter"
			labels, tunings := goldenTunings(coll)
			for i, tuning := range tunings {
				for _, size := range sizes {
					for root := 0; root < n; root++ {
						if root > 0 && !rooted {
							break
						}
						if _, err := Replay(w.cluster.Link, w.place, CollCall{Coll: coll, Bytes: size, Root: root, Tuning: tuning}); err != nil {
							t.Fatalf("%s %s/%s size=%d root=%d: %v", w.name, coll, labels[i], size, root, err)
						}
						calls++
					}
				}
			}
		}
	}
	t.Logf("%d collective calls proved sound", calls)
}

// TestLiveListsPassTheReplay covers the one path the enumeration cannot:
// on a live world only the root of a Bcast or Scatter whose lists depend
// on the sizes knows them, so every other rank ends its list with a
// continuation (stLocal) that appends the tail once the header has
// arrived. Each rank keeps the list it actually executed, and the lists of
// the world go through the same replay — sizes, payload marks, nothing
// unreceived. Every policy that sends a header is run; a world where no
// list grew (a broadcast every member resolves to the binomial tree alone)
// ran the lists the enumeration proves.
func TestLiveListsPassTheReplay(t *testing.T) {
	cfgs := goldenConfigs()
	var continued atomic.Int64 // lists that grew while they ran, over all ranks
	pooled := 0
	for _, cfg := range cfgs[8:] { // paper9/n9 and both 24-rank fat-node placements
		n := len(cfg.place)
		for _, k := range []struct {
			coll   string
			tuning *CollTuning
		}{
			{"bcast", AutoCollTuning()},
			{"bcast", &CollTuning{Bcast: BcastSegmented}},
			{"bcast", &CollTuning{Bcast: BcastHier}},
			{"scatter", AutoCollTuning()},
		} {
			coll := k.coll
			for _, size := range goldenSizes {
				if coll == "scatter" && size > 64<<10 {
					continue
				}
				for _, root := range []int{0, n - 1} {
					w := NewWorld(cfg.cluster, cfg.place)
					w.SetCollTuning(k.tuning)
					var grew atomic.Int64
					plans := make([]plan, n)
					err := w.Run(func(p *Proc) error {
						c := p.CommWorld()
						// What Comm.Bcast and Comm.Scatter do, keeping the list. The
						// scatter's parts are equal, so a non-root rank's own size
						// stands for everyone's, as in the replay.
						x := c.newRun(coll, size)
						if coll == "bcast" {
							length := -1
							if c.rank == root {
								x.buf, length = goldenPayload(root, 0, size), size
							}
							x.bcast(x.self(), root, length)
						} else {
							if c.rank == root {
								x.in = goldenParts(root, n, size)
								x.sizes = c.partSizes("Scatter", x.in)
							}
							x.scatter(x.self(), root)
						}
						built := len(x.steps)
						x.run()
						if len(x.buf) != size {
							return fmt.Errorf("rank %d got %d bytes, want %d", c.rank, len(x.buf), size)
						}
						if len(x.steps) > built {
							grew.Add(1)
						}
						plans[c.rank] = plan{steps: slices.Clone(x.steps)}
						x.release()
						return nil
					})
					if err == nil && grew.Load() == 0 {
						continue
					}
					continued.Add(grew.Load())
					if err == nil {
						_, err = replayPlans(cfg.cluster.Link, cfg.place, coll, plans)
					}
					if err != nil {
						t.Fatalf("%s %s size=%d root=%d: %v", cfg.name, coll, size, root, err)
					}
					for _, p := range plans {
						for _, s := range p.steps {
							if s.pooled {
								pooled++
							}
						}
					}
				}
			}
		}
	}
	if continued.Load() == 0 || pooled == 0 {
		t.Fatalf("%d lists grew from a header and %d sends were pooled: the continuation path was not exercised", continued.Load(), pooled)
	}
	t.Logf("%d lists grew from a header, %d pooled sends matched", continued.Load(), pooled)
}
