package mpi

// Golden clocks: every blocking collective × algorithm × world × payload
// × root, pinned as every rank's final virtual clock (float64 bits) plus
// a hash of every rank's result. testdata/coll_clocks.golden was generated
// once, before the collectives were rewritten as schedules, and is the
// fixed point any change to the collective layer must reproduce bit for
// bit on both transports. There is deliberately no way to regenerate it
// from here: a change that is MEANT to move simulated time carries its own
// generator in its first commit, as the one that created the file did.

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/hnoc"
	"repro/internal/trace"
	"repro/internal/vclock"
)

const goldenPath = "testdata/coll_clocks.golden"

// goldenConfig is one world shape of the matrix.
type goldenConfig struct {
	name    string
	cluster *hnoc.Cluster
	place   []int
}

func goldenConfigs() []goldenConfig {
	var out []goldenConfig
	for n := 1; n <= 9; n++ {
		place := make([]int, n)
		for i := range place {
			place[i] = i
		}
		out = append(out, goldenConfig{fmt.Sprintf("paper9/n%d", n), hnoc.Paper9(), place})
	}
	fat, blocked := hnoc.FatNode3x8()
	out = append(out, goldenConfig{"fat3x8/blocked", fat, blocked})
	fat2, _ := hnoc.FatNode3x8()
	inter := make([]int, len(blocked))
	for i := range inter {
		inter[i] = i % 3
	}
	return append(out, goldenConfig{"fat3x8/interleaved", fat2, inter})
}

// goldenCase is one collective call of the matrix.
type goldenCase struct {
	coll   string
	alg    string // label of the tuning
	tuning *CollTuning
	size   int // payload bytes (per part for scatter, reducescatter, alltoall)
	root   int
}

func (k goldenCase) key(cfg string) string {
	return fmt.Sprintf("%s %s/%s size=%d root=%d", cfg, k.coll, k.alg, k.size, k.root)
}

var goldenSizes = []int{0, 8, 1000, 64 << 10, 1 << 20}

// goldenTunings lists, per collective, the labelled policies to run: the
// nil default, AutoCollTuning, and every forced algorithm.
func goldenTunings(coll string) (labels []string, tunings []*CollTuning) {
	add := func(l string, t *CollTuning) { labels = append(labels, l); tunings = append(tunings, t) }
	add("default", nil)
	add("auto", AutoCollTuning())
	switch coll {
	case "bcast":
		add("binomial", &CollTuning{Bcast: BcastBinomial})
		add("segmented", &CollTuning{Bcast: BcastSegmented})
		add("hier", &CollTuning{Bcast: BcastHier})
	case "allreduce":
		add("redbcast", &CollTuning{Allreduce: AllreduceRedBcast})
		add("recdbl", &CollTuning{Allreduce: AllreduceRecursiveDoubling})
		add("ring", &CollTuning{Allreduce: AllreduceRing})
		add("hier", &CollTuning{Allreduce: AllreduceHier})
	case "gather":
		add("flat", &CollTuning{Gather: GatherFlat})
		add("binomial", &CollTuning{Gather: GatherBinomial})
		add("hier", &CollTuning{Gather: GatherHier})
	case "scatter":
		add("flat", &CollTuning{Scatter: ScatterFlat})
		add("binomial", &CollTuning{Scatter: ScatterBinomial})
	case "reducescatter":
		add("viaroot", &CollTuning{ReduceScatter: ReduceScatterViaRoot})
		add("pairwise", &CollTuning{ReduceScatter: ReduceScatterPairwise})
		add("hier", &CollTuning{ReduceScatter: ReduceScatterHier})
	}
	return labels, tunings
}

var goldenColls = []string{"barrier", "bcast", "reduce", "allreduce", "gather", "scatter",
	"reducescatter", "allgather", "alltoall", "scan", "exscan"}

// goldenCases enumerates the matrix for an n-rank world. The collectives
// whose every rank holds n parts skip the 1 MiB part on the 24-rank
// worlds (n² MiB live at once buys no extra coverage).
func goldenCases(n int) []goldenCase {
	var out []goldenCase
	for _, coll := range goldenColls {
		rooted := coll == "bcast" || coll == "reduce" || coll == "gather" || coll == "scatter"
		quadratic := coll == "reducescatter" || coll == "alltoall" || coll == "allgather"
		labels, tunings := goldenTunings(coll)
		for i, t := range tunings {
			for _, size := range goldenSizes {
				if coll == "barrier" && size != 0 {
					continue
				}
				if quadratic && n > 9 && size > 64<<10 {
					continue
				}
				roots := []int{0}
				if rooted && n > 1 {
					roots = append(roots, n-1)
				}
				for _, root := range roots {
					out = append(out, goldenCase{coll, labels[i], t, size, root})
				}
			}
		}
	}
	return out
}

// goldenPayload is rank r's contribution: float64s that are exact in no
// short sum, so any change of reduction order shows in the result hash.
func goldenPayload(r, part, size int) []byte {
	out := make([]byte, size)
	base := 0.1*float64(r+1) + 0.01*float64(part)
	for i := 0; i+8 <= size; i += 8 {
		binary.LittleEndian.PutUint64(out[i:], math.Float64bits(base+1e-3*float64(i/8%97)))
	}
	return out
}

// goldenHash folds b into h a word at a time (FNV-style multiply-xor;
// byte-at-a-time FNV would dominate the run time of the matrix).
func goldenHash(h uint64, b []byte) uint64 {
	h = (h ^ uint64(len(b))) * goldenPrime
	for ; len(b) >= 8; b = b[8:] {
		h = (h ^ binary.LittleEndian.Uint64(b)) * goldenPrime
	}
	for _, c := range b {
		h = (h ^ uint64(c)) * goldenPrime
	}
	return h
}

const (
	goldenSeed  = 14695981039346656037
	goldenPrime = 1099511628211
)

func goldenParts(r, n, size int) [][]byte {
	parts := make([][]byte, n)
	for i := range parts {
		parts[i] = goldenPayload(r, i, size)
	}
	return parts
}

// goldenCall runs case k on comm and returns the rank's result as a list
// of blocks (nil-ness is not part of the result: transports differ in
// whether an empty payload is nil).
func goldenCall(comm *Comm, k goldenCase) [][]byte {
	r, n := comm.Rank(), comm.Size()
	switch k.coll {
	case "barrier":
		comm.Barrier()
		return nil
	case "bcast":
		var data []byte
		if r == k.root {
			data = goldenPayload(r, 0, k.size)
		}
		return [][]byte{comm.Bcast(k.root, data)}
	case "reduce":
		return [][]byte{comm.Reduce(k.root, goldenPayload(r, 0, k.size), SumFloat64)}
	case "allreduce":
		return [][]byte{comm.Allreduce(goldenPayload(r, 0, k.size), SumFloat64)}
	case "gather":
		return comm.Gather(k.root, goldenPayload(r, 0, k.size))
	case "scatter":
		var parts [][]byte
		if r == k.root {
			parts = goldenParts(r, n, k.size)
		}
		return [][]byte{comm.Scatter(k.root, parts)}
	case "reducescatter":
		return [][]byte{comm.ReduceScatter(goldenParts(r, n, k.size), SumFloat64)}
	case "allgather":
		return comm.Allgather(goldenPayload(r, 0, k.size))
	case "alltoall":
		return comm.Alltoall(goldenParts(r, n, k.size))
	case "scan":
		return [][]byte{comm.Scan(goldenPayload(r, 0, k.size), SumFloat64)}
	case "exscan":
		return [][]byte{comm.Exscan(goldenPayload(r, 0, k.size), SumFloat64)}
	}
	panic("unknown golden collective " + k.coll)
}

// goldenRun runs case k on w from time zero and returns the golden line
// body: every rank's final clock bits, the hash of all results, and the
// hash of every rank's KindColl event stream (name, context, resolved
// algorithm, bytes, start and end — so nesting is pinned too). The world
// may be reused across cases (a TCP mesh is expensive to set up): each
// rank's clock, interface and world communicator are reset first, which
// is all the per-run state a completed collective leaves behind.
func goldenRun(w *World, k goldenCase) (string, error) {
	w.SetCollTuning(k.tuning)
	for _, p := range w.procs {
		p.clock.Set(0)
		p.nicOut = vclock.NIC{}
		p.commWorld = nil
	}
	n := w.Size()
	rec := trace.NewRecorder(n, trace.Options{ShardCap: 2048})
	w.SetRecorder(rec)
	sums := make([]uint64, n)
	err := w.Run(func(p *Proc) error {
		h := uint64(goldenSeed)
		for _, b := range goldenCall(p.CommWorld(), k) {
			h = goldenHash(h, b)
		}
		sums[p.Rank()] = h
		return nil
	})
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	all := uint64(goldenSeed)
	for r, p := range w.procs {
		fmt.Fprintf(&sb, "%x ", math.Float64bits(float64(p.clock.Now())))
		all = (all ^ sums[r]) * goldenPrime
	}
	fmt.Fprintf(&sb, "h=%x", all)
	if k.coll == "allreduce" && n == 1 {
		// Whether a single-rank Allreduce emitted its event depended on the
		// algorithm when this file was generated; the stream is pinned by
		// TestAllreduceSingleRankEmitsOneEvent instead.
		return sb.String(), nil
	}
	ev := uint64(goldenSeed)
	for _, evs := range rec.Data().PerRank {
		for i := range evs {
			if e := &evs[i]; e.Kind == trace.KindColl {
				ev = goldenHash(ev, []byte(e.Name))
				for _, v := range []uint64{uint64(e.Ctx), uint64(e.A0), uint64(e.Bytes),
					math.Float64bits(float64(e.Start)), math.Float64bits(float64(e.End))} {
					ev = (ev ^ v) * goldenPrime
				}
			}
		}
		ev = (ev ^ 0xff) * goldenPrime // rank separator
	}
	fmt.Fprintf(&sb, " e=%x", ev)
	return sb.String(), nil
}

// goldenClocks parses the clock bits of a golden line body.
func goldenClocks(body string) []vclock.Time {
	var out []vclock.Time
	for _, f := range strings.Fields(body) {
		if strings.HasPrefix(f, "h=") {
			break
		}
		var bits uint64
		fmt.Sscanf(f, "%x", &bits)
		out = append(out, vclock.Time(math.Float64frombits(bits)))
	}
	return out
}

// readGolden loads the golden file as key -> line body.
func readGolden(t testing.TB) map[string]string {
	t.Helper()
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := make(map[string]string)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		key, body, ok := strings.Cut(sc.Text(), " : ")
		if ok {
			out[key] = body
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestGoldenClocks replays the whole matrix on both transports and
// demands the committed clocks and result hashes, bit for bit. -short keeps
// the payloads up to 1 000 B: the race detector (`make check` passes
// -short with -race) slows the per-element payload loops of the large ones
// by an order of magnitude, and the pinned clocks are as deterministic with
// it as without.
func TestGoldenClocks(t *testing.T) {
	want := readGolden(t)
	for _, transport := range nbTransports {
		for _, cfg := range goldenConfigs() {
			cfg := cfg
			t.Run(transport+"/"+cfg.name, func(t *testing.T) {
				cases := goldenCases(len(cfg.place))
				var shared *World
				if transport == "tcp" {
					w, closeT, err := newWorldTCPOpts(cfg.cluster, cfg.place, tcpOptions{})
					if err != nil {
						t.Fatal(err)
					}
					defer func() { _ = closeT() }()
					shared = w
				}
				bad := 0
				for _, k := range cases {
					if testing.Short() && k.size > 1000 {
						continue
					}
					w := shared
					if w == nil {
						w = NewWorld(cfg.cluster, cfg.place)
					}
					got, err := goldenRun(w, k)
					if err != nil {
						t.Fatalf("%s: %v", k.key(cfg.name), err)
					}
					if exp, ok := want[k.key(cfg.name)]; !ok {
						t.Fatalf("%s: no golden line", k.key(cfg.name))
					} else if got != exp {
						t.Errorf("%s:\n got  %s\n want %s", k.key(cfg.name), got, exp)
						if bad++; bad > 5 {
							t.Fatal("too many mismatches")
						}
					}
				}
			})
		}
	}
}
