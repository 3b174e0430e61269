package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/apps/em3d"
	"repro/internal/apps/jacobi"
	"repro/internal/apps/matmul"
	"repro/internal/estimator"
	"repro/internal/hmpi"
	"repro/internal/hnoc"
	"repro/internal/jobspec"
	"repro/internal/mapper"
	"repro/internal/mpi"
	"repro/internal/sched"
	"repro/internal/vclock"
)

// The layer suite times one public entry point of one layer at a time,
// bottom-up. Every value is a median of s.reps repetitions; fast calls
// are timed in batches and divided.

type layerSuite struct {
	reps int
	seed uint64
	out  map[string]metric
	// timeofAllocs is the allocations per Session.Timeof: exactly 0 at the
	// seed commit, so it goes to the human table only — a metric that reads
	// 0 cannot be compared by ratio.
	timeofAllocs float64
	err          error // first failure; later measurements are skipped
}

// sink and sinkF keep results alive so the compiler cannot drop a timed
// call; floats get their own so storing one does not allocate.
var (
	sink  any
	sinkF float64
)

var unitNS = map[string]float64{"ns": 1, "us": 1e3, "ms": 1e6}

// layerReps is the repetitions behind every median of the layer suite.
const layerReps = 21

func (s *layerSuite) put(name, unit string, v float64) { s.out[name] = metric{v, unit} }

func (s *layerSuite) fail(name string, err error) {
	if s.err == nil && err != nil {
		s.err = fmt.Errorf("%s: %w", name, err)
	}
}

// timed reports the median time of one fn call, each repetition timing
// `batch` calls back to back.
func (s *layerSuite) timed(name, unit string, batch int, fn func() error) {
	if s.err != nil {
		return
	}
	var samples []float64
	for r := 0; r < s.reps; r++ {
		t0 := time.Now()
		for b := 0; b < batch; b++ {
			if err := fn(); err != nil {
				s.fail(name, err)
				return
			}
		}
		samples = append(samples, float64(time.Since(t0).Nanoseconds())/float64(batch)/unitNS[unit])
	}
	s.put(name, unit, median(samples))
}

// mallocs is the process-wide count of heap allocations so far.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

var appNames = []string{"em3d", "matmul", "jacobi"}

// paperSpec is the app's job at exactly the paper's size, with matmul's
// block size fixed so it prices one model call.
func paperSpec(app, mode string) jobspec.Spec {
	s := jobspec.Spec{App: app, Mode: mode}
	switch app {
	case "em3d":
		s.Nodes, s.P, s.Iters = 400_000, 9, 10
	case "matmul":
		s.N, s.R, s.M, s.L = 90, 9, 3, 9
	case "jacobi":
		s.Grid, s.P, s.Iters = 1800, 9, 10
	}
	return s
}

func (s *layerSuite) substrate() {
	var nic vclock.NIC
	t := vclock.Time(0)
	s.timed("vclock.nic_reserve_ns", "ns", 100_000, func() error {
		_, t = nic.Reserve(t, 1e-6)
		return nil
	})
	paper9 := hnoc.Paper9()
	s.timed("hnoc.clone_us", "us", 1000, func() error { sink = paper9.Clone(); return nil })
	s.timed("pmdl.parse_us", "us", 4, func() error {
		sink = []any{em3d.Model(), matmul.Model(), jacobi.Model()}
		return nil
	})

	// A seeded 1 000-task graph on nine processors: two thirds compute,
	// one third transfers, each depending on up to two earlier tasks.
	r := rng(s.seed ^ 0x3c6ef372fe94f82b)
	dag := &sched.DAG{}
	for i := 0; i < 1000; i++ {
		var deps []int
		for d := 0; d < min(i, 2); d++ {
			deps = append(deps, r.intn(i))
		}
		if r.intn(3) == 0 {
			src := r.intn(9)
			dag.AddTransfer(src, (src+1+r.intn(8))%9, float64(1+r.intn(1<<16)), deps)
		} else {
			dag.AddCompute(r.intn(9), float64(1+r.intn(100)), deps)
		}
	}
	res := sched.Resources{
		Speed:        func(p int) float64 { return paper9.Machines[p].Speed },
		Link:         func(src, dst int) sched.Link { return sched.Link{Latency: 150e-6, Bandwidth: 11e6, Overhead: 20e-6} },
		SerialiseNIC: true,
	}
	var scratch sched.Scratch
	s.timed("sched.makespan_us", "us", 20, func() error {
		sinkF = sched.MakespanInto(&scratch, dag, 9, res)
		return nil
	})
}

// pricing times the model layers at the paper's sizes: instantiate, build
// the estimator, score one candidate, and the whole cold prediction.
func (s *layerSuite) pricing() {
	for _, app := range appNames {
		spec := paperSpec(app, jobspec.ModeHMPI)
		model, calls, err := modelCalls(spec)
		if err != nil {
			s.fail(app, err)
			return
		}
		args, cluster := calls[0], hnoc.Paper9()
		s.timed("pmdl.instantiate_us."+app, "us", 1, func() error {
			inst, err := model.Instantiate(args...)
			sink = inst
			return err
		})
		sel, err := newSelection(model, args, cluster)
		if err != nil {
			s.fail(app, err)
			return
		}
		speeds, placement := cluster.Speeds(), mpi.OneProcessPerMachine(cluster)
		s.timed("estimator.new_us."+app, "us", 1, func() error {
			est, err := estimator.New(sel.inst, cluster, speeds, placement)
			sink = est
			return err
		})
		cand := append([]int(nil), sel.pr.Avail[:sel.inst.NumProcs]...)
		session := sel.est.Session()
		s.timed("estimator.timeof_us."+app, "us", 50, func() error { sinkF = session.Timeof(cand); return nil })
		if app == "em3d" && s.err == nil {
			const n = 200
			m0 := mallocs()
			for i := 0; i < n; i++ {
				sinkF = session.Timeof(cand)
			}
			s.timeofAllocs = float64(mallocs()-m0) / n
		}
		s.timed("hmpi.predict_ms."+app, "ms", 1, func() (err error) {
			sinkF, _, err = hmpi.PredictTimeof(hmpi.Config{Cluster: cluster}, model, args...)
			return err
		})
	}
}

// search times mapper.Solve on EM3D selection problems of three shapes.
func (s *layerSuite) search() {
	wide := wideCluster(new(rng))
	solveCase := func(name string, p, nodes int, cluster *hnoc.Cluster, opts mapper.Options) (*selection, mapper.Assignment) {
		if s.err != nil {
			return nil, mapper.Assignment{}
		}
		model, calls, err := modelCalls(jobspec.Spec{App: "em3d", Cluster: cluster, Nodes: nodes, P: p, Iters: 2})
		if err != nil {
			s.fail(name, err)
			return nil, mapper.Assignment{}
		}
		sel, err := newSelection(model, calls[0], cluster)
		if err != nil {
			s.fail(name, err)
			return nil, mapper.Assignment{}
		}
		var a mapper.Assignment
		s.timed("mapper.solve_ms."+name, "ms", 1, func() error {
			var err error
			a, err = mapper.Solve(sel.pr, opts)
			return err
		})
		return sel, a
	}
	// Default options are what a job runs: Auto searches six of nine
	// exhaustively and sixteen of sixteen greedily. Nine of nine is past
	// Auto's exhaustive limit, so those two rows force the strategy, once
	// serial and once with every accelerator the engine has.
	paper9 := hnoc.Paper9()
	all9 := mapper.Options{Strategy: mapper.StrategyExhaustive, ExhaustiveLimit: 1_000_000}
	tuned := all9
	tuned.Cache, tuned.Prune, tuned.Parallelism = true, true, runtime.NumCPU()
	small, a := solveCase("ex-p6of9", 6, 10_000, paper9, mapper.Options{})
	s.put("mapper.evals.ex-p6of9", "count", float64(a.Stats.Evaluations))
	_, a = solveCase("ex-p9of9", 9, 10_000, paper9, all9)
	s.put("mapper.evals.ex-p9of9", "count", float64(a.Stats.Evaluations))
	_, a = solveCase("gl-p16of16", 16, 24_000, wide, mapper.Options{})
	s.put("mapper.evals.gl-p16of16", "count", float64(a.Stats.Evaluations))
	_, a = solveCase("ex-p9of9-tuned", 9, 10_000, paper9, tuned)
	if s.err != nil {
		return
	}
	st := a.Stats
	s.put("mapper.sym_hit_ratio", "ratio", float64(st.CacheHits)/float64(st.Evaluations+st.CacheHits))
	s.put("mapper.pruned_ratio", "ratio", float64(st.Pruned)/float64(st.Evaluations+st.CacheHits+st.Pruned))
	// A whole-solve memo hit: digest the problem, look it up, copy ranks.
	memo := mapper.Options{
		Shared:    mapper.NewSelectionCache(0),
		Namespace: small.est.AppendNamespace(nil),
		MemoKey:   small.est.AppendMemoKey(nil),
	}
	if _, err := mapper.Solve(small.pr, memo); err != nil {
		s.fail("mapper.cache_get_ns", err)
		return
	}
	s.timed("mapper.cache_get_ns", "ns", 200, func() error {
		a, err := mapper.Solve(small.pr, memo)
		sink = a
		return err
	})
}

// newWorld builds a world on either transport.
func newWorld(tcp bool, cluster *hnoc.Cluster, placement []int) (*mpi.World, func() error, error) {
	if tcp {
		return mpi.NewWorldTCP(cluster, placement)
	}
	return mpi.NewWorld(cluster, placement), func() error { return nil }, nil
}

// inWorld runs body on every rank of a fresh world; body returns rank 0's
// samples (per-call microseconds) and allocation count per call.
func (s *layerSuite) inWorld(name string, tcp bool, cluster *hnoc.Cluster, placement []int, tuning *mpi.CollTuning,
	body func(p *mpi.Proc, reps int) (samples []float64, allocs float64)) (us, allocs float64) {
	if s.err != nil {
		return 0, 0
	}
	w, closeWorld, err := newWorld(tcp, cluster, placement)
	if err != nil {
		s.fail(name, err)
		return 0, 0
	}
	w.SetCollTuning(tuning)
	var samples []float64
	err = w.Run(func(p *mpi.Proc) error {
		got, a := body(p, s.reps)
		if p.Rank() == 0 {
			samples, allocs = got, a
		}
		return nil
	})
	if cerr := closeWorld(); err == nil {
		err = cerr
	}
	s.fail(name, err)
	return median(samples), allocs
}

// pingPong is the body of a two-rank ping-pong: blocking Send/Recv, or
// Isend/Irecv/Wait when nb is set.
func pingPong(size, batch int, nb bool) func(p *mpi.Proc, reps int) ([]float64, float64) {
	return func(p *mpi.Proc, reps int) ([]float64, float64) {
		c, data := p.CommWorld(), make([]byte, size)
		peer := 1 - c.Rank()
		trip := func() {
			switch {
			case nb:
				r := c.Irecv(peer, 0)
				c.Isend(peer, 0, data).Wait()
				r.Wait()
			case c.Rank() == 0:
				c.Send(1, 0, data)
				c.Recv(1, 0)
			default:
				c.Recv(0, 0)
				c.Send(0, 0, data)
			}
		}
		for i := 0; i < batch; i++ { // warm the pools and connections
			trip()
		}
		var samples []float64
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			for i := 0; i < batch; i++ {
				trip()
			}
			samples = append(samples, float64(time.Since(t0).Nanoseconds())/1e3/float64(batch))
		}
		var m0 uint64
		if c.Rank() == 0 {
			m0 = mallocs()
		}
		for i := 0; i < batch; i++ {
			trip()
		}
		if c.Rank() == 0 {
			return samples, float64(mallocs()-m0) / float64(batch)
		}
		return nil, 0
	}
}

var sizeNames = []struct {
	name  string
	bytes int
	batch int
}{{"8", 8, 200}, {"1k", 1 << 10, 200}, {"32k", 32 << 10, 50}, {"512k", 512 << 10, 8}}

func (s *layerSuite) pointToPoint() {
	pair := hnoc.Homogeneous(2, 100)
	pairPlace := mpi.OneProcessPerMachine(pair)
	paper9 := hnoc.Paper9()
	ninePlace := mpi.OneProcessPerMachine(paper9)
	for _, tcp := range []bool{false, true} {
		t := map[bool]string{false: "inproc", true: "tcp"}[tcp]
		for _, sz := range sizeNames {
			name := fmt.Sprintf("mpi.pingpong_us.%s.%s", t, sz.name)
			us, allocs := s.inWorld(name, tcp, pair, pairPlace, nil, pingPong(sz.bytes, sz.batch, false))
			s.put(name, "us", us)
			if sz.name == "1k" {
				s.put("mpi.pingpong_allocs."+t, "count", allocs)
			}
		}
		us, allocs := s.inWorld("mpi.nb_pingpong_us."+t, tcp, pair, pairPlace, nil, pingPong(1<<10, 200, true))
		s.put("mpi.nb_pingpong_us."+t, "us", us)
		s.put("mpi.nb_pingpong_allocs."+t, "count", allocs)

		s.timed("mpi.world_setup_us."+t, "us", 1, func() error {
			w, closeWorld, err := newWorld(tcp, paper9, ninePlace)
			sink = w
			if err != nil {
				return err
			}
			return closeWorld()
		})
	}
	s.timed("mpi.run_empty_us", "us", 1, func() error {
		return mpi.NewWorld(paper9, ninePlace).Run(func(*mpi.Proc) error { return nil })
	})
	// Rank 0 drains one 256-byte message from each of the eight others
	// through AnySource; the sample is host time per message.
	us, _ := s.inWorld("mpi.anysource_us", false, paper9, ninePlace, nil, func(p *mpi.Proc, reps int) ([]float64, float64) {
		const rounds = 50
		c, data := p.CommWorld(), make([]byte, 256)
		var samples []float64
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			for i := 0; i < rounds; i++ {
				if c.Rank() != 0 {
					c.Send(0, 0, data)
					continue
				}
				for j := 1; j < c.Size(); j++ {
					c.Recv(mpi.AnySource, 0)
				}
			}
			samples = append(samples, float64(time.Since(t0).Nanoseconds())/1e3/float64(rounds*(c.Size()-1)))
			c.Barrier()
		}
		return samples, 0
	})
	s.put("mpi.anysource_us", "us", us)
}

// collCase is one collective under one forced algorithm. parts is the
// vector-of-blocks argument Scatter and ReduceScatter take.
type collCase struct {
	name   string
	tuning mpi.CollTuning
	call   func(c *mpi.Comm, buf []byte, parts [][]byte)
	// partBytes sizes each block of parts for a payload of `size` bytes on
	// n ranks; nil for collectives that take a flat buffer.
	partBytes func(size, n int) int
}

func allreduceCall(c *mpi.Comm, buf []byte, _ [][]byte) { c.Allreduce(buf, mpi.SumFloat64) }
func bcastCall(c *mpi.Comm, buf []byte, _ [][]byte) {
	if c.Rank() != 0 {
		buf = nil
	}
	c.Bcast(0, buf)
}
func gatherCall(c *mpi.Comm, buf []byte, _ [][]byte)          { c.Gather(0, buf) }
func scatterCall(c *mpi.Comm, _ []byte, parts [][]byte)       { c.Scatter(0, parts) }
func reduceScatterCall(c *mpi.Comm, _ []byte, parts [][]byte) { c.ReduceScatter(parts, mpi.SumFloat64) }

// Scatter hands every member the full payload; ReduceScatter splits one
// payload into element-aligned blocks.
func wholePart(size, _ int) int { return size }
func blockPart(size, n int) int { return max(8, size/n/8*8) }

var flatColls = []collCase{
	{"allreduce-redbcast", mpi.CollTuning{Allreduce: mpi.AllreduceRedBcast}, allreduceCall, nil},
	{"allreduce-recdbl", mpi.CollTuning{Allreduce: mpi.AllreduceRecursiveDoubling}, allreduceCall, nil},
	{"allreduce-ring", mpi.CollTuning{Allreduce: mpi.AllreduceRing}, allreduceCall, nil},
	{"bcast-binomial", mpi.CollTuning{Bcast: mpi.BcastBinomial}, bcastCall, nil},
	{"bcast-segmented", mpi.CollTuning{Bcast: mpi.BcastSegmented}, bcastCall, nil},
	{"gather-flat", mpi.CollTuning{Gather: mpi.GatherFlat}, gatherCall, nil},
	{"gather-binomial", mpi.CollTuning{Gather: mpi.GatherBinomial}, gatherCall, nil},
	{"scatter-flat", mpi.CollTuning{Scatter: mpi.ScatterFlat}, scatterCall, wholePart},
	{"scatter-binomial", mpi.CollTuning{Scatter: mpi.ScatterBinomial}, scatterCall, wholePart},
	{"reducescatter-viaroot", mpi.CollTuning{ReduceScatter: mpi.ReduceScatterViaRoot}, reduceScatterCall, blockPart},
	{"reducescatter-pairwise", mpi.CollTuning{ReduceScatter: mpi.ReduceScatterPairwise}, reduceScatterCall, blockPart},
}

var hierColls = []collCase{
	{"allreduce-hier", mpi.CollTuning{Allreduce: mpi.AllreduceHier}, allreduceCall, nil},
	{"bcast-hier", mpi.CollTuning{Bcast: mpi.BcastHier}, bcastCall, nil},
	{"gather-hier", mpi.CollTuning{Gather: mpi.GatherHier}, gatherCall, nil},
	{"reducescatter-hier", mpi.CollTuning{ReduceScatter: mpi.ReduceScatterHier}, reduceScatterCall, blockPart},
}

// collective times one case at one payload size: host microseconds and
// allocations per collective seen from rank 0, a Barrier closing every
// batch so the slowest rank is inside the measurement.
func (s *layerSuite) collective(k collCase, cluster *hnoc.Cluster, placement []int, size, batch int) (us, allocs float64) {
	tuning := k.tuning
	return s.inWorld(k.name, false, cluster, placement, &tuning, func(p *mpi.Proc, reps int) ([]float64, float64) {
		c := p.CommWorld()
		buf := make([]byte, size)
		var parts [][]byte
		if k.partBytes != nil {
			for i := 0; i < c.Size(); i++ {
				parts = append(parts, make([]byte, k.partBytes(size, c.Size())))
			}
		}
		round := func() {
			for i := 0; i < batch; i++ {
				k.call(c, buf, parts)
			}
			c.Barrier()
		}
		round()
		var samples []float64
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			round()
			samples = append(samples, float64(time.Since(t0).Nanoseconds())/1e3/float64(batch))
		}
		m0 := mallocs()
		round()
		return samples, float64(mallocs()-m0) / float64(batch)
	})
}

// collectives times every forced algorithm at a latency-bound and a
// bandwidth-bound size on Paper9, and the two-level ones on FatNode3x8.
func (s *layerSuite) collectives() {
	paper9 := hnoc.Paper9()
	ninePlace := mpi.OneProcessPerMachine(paper9)
	fat, fatPlace := hnoc.FatNode3x8()
	record := func(k collCase, cluster *hnoc.Cluster, placement []int, sizeName string, size, batch int) {
		us, allocs := s.collective(k, cluster, placement, size, batch)
		s.put("mpi.coll_us."+k.name+"."+sizeName, "us", us)
		if sizeName == "512k" && strings.HasPrefix(k.name, "allreduce-") {
			s.put("mpi.coll_allocs."+k.name, "count", allocs)
		}
	}
	for _, k := range flatColls {
		record(k, paper9, ninePlace, "1k", 1<<10, 20)
		record(k, paper9, ninePlace, "512k", 512<<10, 2)
	}
	for _, k := range hierColls {
		record(k, fat, fatPlace, "512k", 512<<10, 2)
	}
}

// runtimeLayer times hmpi's own entry points with a bench-owned Run body:
// Recon, then GroupCreate and GroupFree on a six-process EM3D model.
func (s *layerSuite) runtimeLayer() {
	cfg := hmpi.Config{Cluster: hnoc.Paper9()}
	s.timed("hmpi.new_us", "us", 1, func() error {
		rt, err := hmpi.New(cfg)
		if err != nil {
			return err
		}
		rt.Finalize()
		return nil
	})
	model, calls, err := modelCalls(jobspec.Spec{App: "em3d", Nodes: 10_000, P: 6, Iters: 2})
	if err != nil {
		s.fail("hmpi.group_create_ms", err)
		return
	}
	var reconUS, createMS []float64
	for r := 0; r < s.reps && s.err == nil; r++ {
		rt, err := hmpi.New(cfg)
		if err != nil {
			s.fail("hmpi.group_create_ms", err)
			return
		}
		err = rt.Run(func(h *hmpi.Process) error {
			t0 := time.Now()
			if err := h.Recon(hmpi.DefaultBenchmark(1)); err != nil {
				return err
			}
			t1 := time.Now()
			g, err := h.GroupCreate(model, calls[0]...)
			if err != nil {
				return err
			}
			if h.IsMember(g) {
				if err := h.GroupFree(g); err != nil {
					return err
				}
			}
			if h.IsHost() {
				reconUS = append(reconUS, float64(t1.Sub(t0).Nanoseconds())/1e3)
				createMS = append(createMS, float64(time.Since(t1).Nanoseconds())/1e6)
			}
			return nil
		})
		rt.Finalize()
		s.fail("hmpi.group_create_ms", err)
	}
	if s.err == nil {
		s.put("hmpi.recon_us", "us", median(reconUS))
		s.put("hmpi.group_create_ms", "ms", median(createMS))
	}
}

// leaves runs the whole bottom-up suite.
func (s *layerSuite) leaves() error {
	s.substrate()
	s.pricing()
	s.search()
	s.pointToPoint()
	s.collectives()
	s.runtimeLayer()
	return s.err
}
