package mpi

import (
	"fmt"
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
